"""Exact computation of Kronecker, reduced Kronecker, and Littlewood-Richardson
coefficients, with closed forms for special families and a verification
harness for log-concavity style inequalities in the stable representation
ring."""

from .characters import (
    CharacterTable,
    character,
    character_value,
    class_sizes,
    dimension,
)
from .closed_forms import reach_count, reduced_hook, reduced_two_row
from .coefficients import (
    CompareResult,
    VirtualRep,
    clear_caches,
    kronecker,
    kronecker_sequence,
    lr_coefficient,
    lr_expand,
    reduced_kronecker,
    reduced_tensor_decompose,
    stabilization_start,
    stable_ring_compare,
    stable_ring_multiply,
    tensor_decompose,
)
from .conjectures import (
    EXPECTED_SQUARE_DIFFERENCE_S8,
    GOLDEN_TRIPLE,
    GOLDEN_TRIPLE_VALUE,
    GoldenCheck,
    Violation,
    ViolationReport,
    check_dim_log_concavity,
    check_murnaghan_littlewood,
    check_payload,
    check_saturation,
    run_golden_suite,
    scan,
)
from .errors import (
    InvariantViolation,
    KroncaveError,
    NotIntegral,
    PadTooSmall,
    PartitionParseError,
    SizeMismatch,
    StoreIOError,
)
from .partitions import (
    EMPTY,
    Partition,
    as_partition,
    canonical_key,
    conjugate,
    dvir_inequalities,
    hook_lengths,
    interleave_split,
    midpoint,
    murnaghan_inequalities,
    pad,
    part,
    partitions_of,
    partitions_up_to,
    sort_split,
    syt_count,
    union_parts,
)
from .store import (
    CoefficientCache,
    ENGINE_VERSION,
    format_partition,
    parse_partition_text,
)

__version__ = "0.1.0"
