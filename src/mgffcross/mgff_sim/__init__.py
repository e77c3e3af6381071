"""Lattice Monte-Carlo for sign-cluster crossing patterns."""

from .experiment import (
    MU_LAT_DEFAULT,
    ExperimentReport,
    MeshResult,
    SimConfig,
    partition_mask,
    run_experiment,
    sweep_mu,
    wilson_interval,
)
from .kernels import pair_bit, percolate_batch, resolve_kernel
from .lattice import (
    LatticeField,
    LatticeSpec,
    boundary_values,
    build_lattice,
    dirichlet_eigenvalues,
    edge_open_probability,
    harmonic_extension,
)

