"""uimlab: minors of finite functions of several arguments.

Identification minors, the minor quasi-order and equivalence, invariance
groups and 2-set-transitivity, decompositions through the order of first
occurrence and through support, a gluing construction with prescribed
identification minors, and an exhaustive/sampled search harness over complete
table spaces.
"""

from .analysis import (
    Classification,
    SearchReport,
    SuiteReport,
    classify,
    equiv_to_ofo_determined,
    has_uim,
    invariance_group,
    search,
    verify_suite,
)
from .construct import (
    GluingSpec,
    build,
    marked_tuple,
    sporadic_function,
    sporadic_partial_function,
)
from .decomp import (
    OfoTable,
    SuppTable,
    anchored_minor_equivalence,
    compose_ofo,
    compose_supp,
    ofo_decompose,
    supp_decompose,
)
from .ftable import (
    FunctionTable,
    TableFormatError,
    are_equivalent,
    are_equivalent_same_arity,
    essential_args,
    identification_minor,
    is_minor_of,
    load_table,
    restrict_to_repeats,
    save_table,
)
from .symmetry import PermutationGroup, collapse_permutation, is_2_set_transitive
from .tuples import (
    IndexMap,
    IndexPair,
    Permutation,
    apply_index_map,
    collapse_map,
    decode,
    encode,
    enumerate_repeat_free,
    ofo,
    supp,
)

__version__ = "0.1.0"
