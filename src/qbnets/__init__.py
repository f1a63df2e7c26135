"""Quantum Bayesian networks.

Complex-amplitude graphical models with exact inference, quantum belief
propagation on polytrees and tree factor graphs, graphical and
information-theoretic independence checks, density-matrix
constructions, and squashed entanglement.
"""

from .amplitudes import LabeledAmplitude, labeled, marginalize, multiply
from .bipartite import (
    BipartiteBeliefs,
    Factor,
    FactorBelief,
    FactorGraphNet,
    MessageState,
    bipartite_beliefs,
    bipartite_iterate,
    factor_graph_to_qbnet,
    init_messages,
    run_bipartite,
)
from .construct import density_to_qbnet, reduce_qbnet, regrouped_reduced_tensor
from .errors import (
    CapacityError,
    ConvergenceError,
    ImpossibleEvidenceError,
    InvalidStateError,
    NotReducibleError,
    QbnetError,
    SchedulingError,
    StructureError,
    ZeroProbabilityError,
)
from .graph import (
    Dag, Multinode, as_multinode, d_separated, is_polytree, sides_assignable, topological_order
)
from .network import (
    DEFAULT_CAP,
    ConditionalAmplitude,
    NodeTpm,
    QBNet,
    amplitude_tensor,
    conditional_amplitude,
    joint_amplitude,
    marginal_probability,
    node_tpm,
    posterior_oracle,
    tpm_amplitude,
    validate_evidence,
    vector_amplitude,
)
from .qbp import (
    AmplitudeMessage,
    Belief,
    compute_lambda,
    compute_pi,
    propagate_polytree,
    rule1_lambda_to_parent,
    rule2_pi_to_child,
)
from .qinfo import (
    ClassicalDistribution,
    DensityMatrix,
    DiagonalExtension,
    classical_cmi,
    classical_conditional_entropy,
    classical_entropy,
    classical_mutual_information,
    cmi_diagonal,
    dephase,
    diagonal_blocks,
    net_to_density,
    partial_trace,
    quantum_cmi,
    quantum_conditional_entropy,
    quantum_mutual_information,
    reordered,
    von_neumann_entropy,
)
from .squashed import EsqResult, assembly_error, squashed_entanglement
from .verify import (
    CampaignReport,
    CensusReport,
    TrialReport,
    bp_campaign,
    check_dsep_forward,
    dsep_forward_census,
    enumerate_dags,
    search_dsep_witness,
)

__version__ = "0.1.0"
