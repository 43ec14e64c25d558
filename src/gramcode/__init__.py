"""l-gram profile vector coding for DNA storage channels.

Words map to count vectors of their length-l substrings; those vectors
live on a restricted de Bruijn graph, are enumerated exactly as lattice
points of flow polytopes, and carry asymmetric error-correcting codes
that survive synthesis, coverage and sequencing noise.
"""

from .grams import (
    ChannelBudget,
    GramSet,
    OutOfSetGramError,
    ProfileVector,
    Word,
    build_weight_set,
    dna_string,
    explicit_gram_set,
    full_gram_set,
    parse_dna,
    profile,
    q_weight,
    word,
    word_text,
)
from .graphs import (
    DeBruijnGraph,
    build_graph,
    cycle_length_lcm,
    eulerian_walk,
    flow_dimension,
    growth_exponent,
    hamiltonian_cycle,
    is_eulerian,
    strongly_connected_components,
)
from .lattice import (
    FlowSystem,
    QuasiPolynomial,
    brute_force_profiles,
    count_points,
    enumerate_points,
    fit_quasipolynomial,
    flow_system_for_words,
    monotonicity_check,
    reciprocity_check,
)
from .aecc import (
    CongruenceBlock,
    VarshamovCode,
    build_code,
    choose_prime,
    code_size_ambient,
    decode_bounded,
)
from .codec import (
    GrcCodebook,
    SystematicLayout,
    decode_profile,
    euler_word,
    grc_intersect,
    rank_encode,
    rank_modulation_layout,
    rank_readout_decode,
    rotation_start,
    systematic_encode,
    systematic_grc,
    systematic_layout,
)
from .channel import (
    ChannelTrace,
    Splitmix64,
    cycle_decomposition,
    inject,
    star_distance,
    star_identification_bound,
    support_readout,
    tan_shallit_count,
    transmit,
)

__version__ = "0.1.0"
