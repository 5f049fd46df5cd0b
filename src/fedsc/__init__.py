"""Desk-scale federated learning sandbox.

Simulates FedAvg and FedSC (prototype-collaboration training) on synthetic
Gaussian-blob datasets with heterogeneous client partitions, entirely in
numpy, plus executable convergence-bound calculators.
"""
