"""The package's settable values, pinned.

Every public function and class of every gapforge module, and every public
method of those classes, is listed with the names of its parameters that
have defaults; callables without any are left out.  A change that adds or
removes an option fails here until the literal is edited, so the diff
shows it.
"""

import importlib
import inspect
import pkgutil

import gapforge

OPTIONS = {
    "cli.main": ("argv",),
    "codes.Code": ("seed",),
    "codes.collision_number": ("size_cap", "budget", "distance"),
    "codes.reed_solomon": ("cap",),
    "errors.ParseError": ("line",),
    "frontends.DecidedNo": ("empty_classes",),
    "generators.random_bounded_degree_instance": ("max_t", "max_part", "plant_cover"),
    "generators.random_cnf3": ("max_vars",),
    "generators.random_pseudo_projection_instance": ("max_k", "max_t", "max_part",
                                                     "plant_cover"),
    "generators.random_setcover_instance": ("max_universe", "k", "max_sets", "plant_cover"),
    "maxcover.MaxCoverInstance": ("provenance",),
    "maxcover.certify_composition": ("d",),
    "maxcover.compose_gap": ("matching",),
    "maxcover.gap_certificate": ("bound_factor",),
    "maxcover.maxcover_value": ("labeling_cap",),
    "oracles.collision_number_bruteforce": ("size_cap",),
    "pipeline.PipelineReport": ("code_q", "code_r", "code_ell", "delta_exact", "delta_bound",
                                "value_before", "value_after", "gap", "vacuous_gap",
                                "stages"),
    "pipeline.eth_pipeline": ("q_override",),
    "pipeline.wone_pipeline": ("q_override",),
    "setcover.ComposedSetCover": ("matching",),
    "setcover.ComposedSetCover.min_cover": ("budget",),
    "setcover.SetCoverInstance": ("provenance",),
    "setcover.compose_setcover": ("matching",),
    "setcover.min_cover_size": ("budget",),
    "threshold.export_edges": ("cap",),
    "threshold.verify_threshold": ("budget",),
}


def _defaults(fn) -> tuple[str, ...]:
    try:
        params = inspect.signature(fn).parameters
    except ValueError:  # a builtin without a signature takes no option of ours
        return ()
    return tuple(name for name, p in params.items() if p.default is not p.empty)


def _public_callables():
    for info in pkgutil.iter_modules(gapforge.__path__):
        module = importlib.import_module(f"gapforge.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr in dir(obj):
                    method = getattr(obj, attr)
                    if not attr.startswith("_") and inspect.isfunction(method):
                        yield f"{info.name}.{name}.{attr}", method


def test_option_set_is_pinned():
    found = {}
    for key, obj in _public_callables():
        defaults = _defaults(obj)
        if defaults:
            found[key] = defaults
    assert found == OPTIONS


def test_walk_reaches_the_public_api():
    # the walk sees what the package exports and the methods callers use
    keys = {key for key, _ in _public_callables()}
    exported = {name for name, obj in vars(gapforge).items()
                if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))}
    assert exported <= {key.split(".")[1] for key in keys if key.count(".") == 1}
    assert {"codes.Code.codeword", "codes.verify_phf", "maxcover.MaxCoverInstance.materialize",
            "maxcover.MaxCoverInstance.covered", "setcover.ComposedSetCover.covers",
            "generators.random_cnf3"} <= keys
