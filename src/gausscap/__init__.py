"""Capacity bounds and entropy-power-inequality checks for single-mode
bosonic Gaussian channels, built on covariance-matrix algebra."""

from .capacities import (
    BoundResult,
    bound_columns,
    coherent_information,
    coherent_lower_bound,
    equivalent_thermal_photon,
    evaluate_bounds,
    holevo_capacity,
    maximal_capacity,
    moe_sum_lower,
    private_capacity_lower_approx,
    private_capacity_upper,
    private_capacity_upper_general,
)
from .channels import (
    ChannelKind,
    ChannelSpec,
    amplifier_symplectic,
    apply_channel,
    beam_splitter_symplectic,
    channel_symplectic,
    complementary,
    output_entropies,
    weak_complementary,
)
from .core import (
    CovarianceMatrix,
    ModePartition,
    PhysicalityError,
    SymplecticMatrix,
    apply_symplectic,
    conditional_entropy,
    deserialize_covariance,
    direct_sum,
    entropy,
    partial_trace,
    purify,
    random_gaussian_state,
    random_symplectic,
    serialize_covariance,
    squeezed_thermal_state,
    symplectic_eigenvalues,
    symplectic_form,
    thermal_entropy,
    thermal_state,
    total_photon_number,
    two_mode_squeezed_state,
    vacuum_state,
    williamson,
)
from .epi import (
    EpiReport,
    EpiTrial,
    Inequality,
    check_cqepi_amp,
    check_cqepi_bs,
    check_moe_chain,
    check_qepi_amp,
    check_qepi_bs,
    check_wc_chain,
    monte_carlo_verify,
)

__version__ = "0.1.0"
