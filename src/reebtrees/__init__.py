"""Leveled graphs of real-valued functions, their tree decompositions, and
phylogenetic distances built on top.

The model, its structural operations and its critical skeleton live in core;
dag classifies vertices and checks the two cycle-rank computations, counted on
the skeleton, against each other; decomposition splits a single-source graph
into trees at the skeleton's merge vertices, by the one cut rule that
isomorphism and phylo also read, and glues them back; isomorphism decides
equivalence three different ways; phylo turns trees into cophenetic vectors
and compares networks by Hausdorff distance; enewick and serialize read and
write the supported text formats; generator produces seeded random instances.
"""

import types

from .core import (
    LevelPoset,
    ReebGraph,
    RESERVED_VERTEX_PREFIX,
    as_level,
    common_refinement,
    format_level,
    make_graph,
    minimize_critical_set,
    parse_level,
    refine_to_levels,
    validate,
)
from .dag import (
    VertexClass,
    VertexKind,
    betti_euler,
    betti_reticulation,
    build_dag_view,
    classify_vertex,
    source_vertices,
)
from .decomposition import (
    CutChoice,
    Decomposition,
    Factor,
    apply_choice,
    cut_options,
    decompose,
    enumerate_choices,
    factor_count,
    glue_back,
    make_choice,
)
from .enewick import (
    PhyloNetwork,
    enewick_to_reeb,
    network_to_reeb,
    parse_enewick,
    reeb_to_network,
    write_enewick,
)
from .errors import (
    BadLevelSet,
    DimensionMismatch,
    EmptySet,
    HybridArityError,
    IncompatibleShape,
    InfeasibleSpec,
    InvalidChoice,
    LabelMismatch,
    MissingLabels,
    NewickSyntaxError,
    NotATree,
    NotRooted,
    OrderConflict,
    PositionedError,
    ReebError,
    ReticulationConflict,
    SchemaError,
    SizeLimitExceeded,
    TimeInconsistency,
    UnbalancedParens,
)
from .generator import GeneratorSpec, random_graph
from .isomorphism import (
    CanonicalForm,
    MorphismWitness,
    brute_force_iso,
    canonical_form,
    decomposition_invariant,
    labelled_iso,
    reeb_iso,
    verify_witness,
)
from .phylo import (
    CopheneticVector,
    cophenetic_vector,
    hausdorff_distance,
    leaf_order,
    lp_distance,
    network_distance,
    nth_root_fraction,
)
from .serialize import dump_text, from_jsonable, load_text, to_dot, to_jsonable

__version__ = "0.1.0"

__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
