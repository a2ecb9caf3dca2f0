"""Quantum-circuit and classical baselines for monthly time-series forecasting.

Submodules:
    qsim       statevector simulator (gates, circuits, Hadamard tests)
    backend    the numpy gate kernels qsim runs on
    pauli      Pauli-basis decomposition of Hermitian matrices
    linsys     differencing, scaling, sliding windows, normal equations
    optimize   derivative-free and quasi-Newton minimizers
    vqls       variational quantum linear solver
    pqc        parameterized-quantum-circuit regressor
    baselines  classical linear and MLP regressors
    modelfile  the one saved-model format: writer and reader
    datagen    synthetic sales-like series generator
    pipeline   end-to-end train/evaluate runs
    cli        command-line interface
"""

__version__ = "0.1.0"
