"""legkit: combinatorial machinery for Legendrian unknots.

Front diagrams with exact Thurston-Bennequin / rotation invariants, the
signed-tree wavefront construction with catalog normalization, a rewrite
engine for disk characteristic foliations, numeric Legendrian lifting, and
classification oracles for tight and overtwisted ambient structures.

Every public name and submodule is resolved on first use by the module
``__getattr__`` below (PEP 562), from ``_HOME``, the table of each name's
module: ``import legkit`` loads no submodule, and ``legkit.X`` loads only
X's module and what that imports.  Only ``lifting`` needs numpy;
``realize_front`` resolves from ``render``, where the realization lives, so
it loads no numpy.
"""

from importlib import import_module

# each public name, by the module it lives in; a submodule names itself
_HOME = {name: module for module, names in {
    "fronts": """fronts FrontDiagram FrontEvent OrientedFront check_bennequin check_parity
        in_unknot_range insert_zigzag displace_zigzag invariant_pair linking_matrix parse_front
        rotation_number serialize_front thurston_bennequin trace_components
        transverse_self_linking""",
    "trees": """trees AcceptableEmbedding SignedTree build_front catalog_front catalog_tree
        expected_invariants move_end_edge normalize_front_to_catalog normalize_to_almost_linear
        parse_tree serialize_tree""",
    "foliation": """foliation FoliationState extract_skeleton init_boundary reduce_interior
        run_pipeline to_elliptic_form to_naf""",
    "classify": """classify ContactStructureTag classify_loose classify_tight_unknot
        complement_torus_data d3_from_hopf exceptional_unknot_classes hopf_after_lutz
        hopf_after_lutz_front loose_check""",
    "lifting": """lifting LiftedCurve lagrangian_closure_integral lagrangian_embeddedness_check
        legendrian_lift numeric_rotation""",
    "render": "realize_front",
    "errors": "errors",
}.items() for name in names.split()}


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module("." + _HOME[name], __name__)
    return module if name == _HOME[name] else getattr(module, name)


# every public name, for ``from legkit import *``
__all__ = sorted(_HOME)

__version__ = "0.1.0"
