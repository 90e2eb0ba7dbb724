"""rgcost: exact rank gradient, cost and first L2-Betti numbers for
Artin/Coxeter group families, with machine-checkable decomposition
certificates and a finitely-presented-group verification engine."""

__version__ = "0.1.0"

from .groupexpr import (
    INFINITE,
    AmalgamAmenable,
    AmalgamFinite,
    Amenable,
    ArtinGraph,
    CoxeterGraph,
    Cyclic,
    Free,
    FreeAbelian,
    Generation,
    GroupExpr,
    GroupOrder,
    IntegersZ,
    PriceResult,
    Surface,
    TrivialGroup,
    Unknown,
    evaluate,
    is_known,
    recip_order,
)
from .lgraph import (
    GraphError,
    LabelledGraph,
    components,
    girth,
    is_planar,
    parse_graph,
    reduction_order,
)

__all__ = [
    "INFINITE",
    "AmalgamAmenable",
    "AmalgamFinite",
    "Amenable",
    "ArtinGraph",
    "CoxeterGraph",
    "Cyclic",
    "Free",
    "FreeAbelian",
    "Generation",
    "GraphError",
    "GroupExpr",
    "GroupOrder",
    "IntegersZ",
    "LabelledGraph",
    "PriceResult",
    "Surface",
    "TrivialGroup",
    "Unknown",
    "components",
    "evaluate",
    "girth",
    "is_known",
    "is_planar",
    "parse_graph",
    "recip_order",
    "reduction_order",
]
