"""Every public top-level name under ``src/axsim`` is reached from the
simulator's entry points, or is kept for a stated reason.

The walk starts at the runner's entry points and ``engine.RunContext`` and
follows, through the source's syntax tree, every name a reached definition
refers to: a name of its own module, one imported with ``from .m import x``,
or ``m.x`` on a module imported with ``from . import m``.  Names a function
binds itself (its arguments and assignments) do not refer to the module.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "axsim"

ENTRY_POINTS = [("runner", "run"), ("runner", "compare"), ("runner", "sweep"),
                ("engine", "RunContext")]

# Unreached names that stay, each with its reason.
KEEP = {
    ("baseline", "su_txop_exchange"): "ROADMAP item 2: oracle for one engine TXOP",
    ("frames", "Ampdu"): "ROADMAP item 2: carried by su_txop_exchange's oracle",
    ("core", "TXOP_LIMIT"): "ROADMAP item 2: su_txop_exchange's TXOP budget",
    ("ru", "PunctureMode"): "ROADMAP item 6: secondary-channel access",
    ("ru", "resolve_puncture"): "ROADMAP item 6: secondary-channel access",
    ("config", "RATE_SWEEPS_MBPS"): "ROADMAP item 7: the paper's load sweeps",
    ("config", "MULTI_BSS_SWEEP_MBPS"): "ROADMAP item 7: the paper's load sweeps",
    ("runner", "write_results_csv"): "ROADMAP item 7: results files",
    ("runner", "write_energy_csv"): "ROADMAP item 7: results files",
    ("runner", "summary_table"): "ROADMAP item 7: results table",
    ("frames", "Mpdu"): "bench probe: frames.mpdu_compares wraps Mpdu.__eq__",
    ("spatial", "max_sr_tx_power"): "bench probe: spatial.max_sr_tx_power.calls",
    ("spatial", "obss_pd_level"): "test reference: the level max_sr_tx_power inverts",
    ("ru", "validate_layout"): "test reference: checks the engine's RU plan",
    ("ru", "layout_catalog"): "test reference: pins the 20 MHz RU divisions",
    ("config", "load_config"): "test reference: scenario files read into ScenarioConfig",
    ("core", "MS"): "test reference: the time unit tests write in",
    ("phy", "he_rate"): "ROADMAP item 5, deferred: the paper's rate examples",
    ("phy", "legacy_rate"): "ROADMAP item 5, deferred: the paper's rate examples",
    ("phy", "spectral_efficiency"): "ROADMAP item 5, deferred: the paper's GI overheads",
    ("phy", "dcm_rotation"): "ROADMAP item 5, deferred: the paper's DCM pairing",
    ("phy", "sinr_db"): "ROADMAP item 5, deferred: linear-sum SINR reference",
    ("ru", "dump_catalog"): "ROADMAP item 5, deferred: RU catalogue listing",
    ("power", "twt_negotiate"): "ROADMAP item 5, deferred: TWT negotiation",
    ("power", "uora_twt_doze"): "ROADMAP item 5, deferred: the paper's UORA SP walk-through",
    ("power", "sp_applies_to_uora_sta"): "ROADMAP item 5, deferred: TWT flow identifiers",
    ("power", "periodic_twt_tick"): "ROADMAP item 5, deferred: the paper's periodic TIM example",
    ("power", "FLOW_TIM_AT_START"): "ROADMAP item 5, deferred: TWT flow identifiers",
}


def top_level_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def relative_imports(tree: ast.Module) -> dict[str, tuple[str, str | None]]:
    """Local name -> (module, name), with name None for a whole module."""
    imports = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (alias.name, None) if node.module is None \
                    else (node.module, alias.name)
                imports[alias.asname or alias.name] = target
    return imports


def loaded_names(node: ast.AST, bound: frozenset[str] = frozenset()):
    """Free names and ``name.attr`` pairs used under node."""
    inner = bound
    body = []
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        body = node.body if isinstance(node.body, list) else [node.body]
        inner = bound | {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)} \
            | {n.id for b in body for n in ast.walk(b)
               if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    elif isinstance(node, ast.Name) and node.id not in bound:
        yield node.id, None
    elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id not in bound:
        yield node.value.id, node.attr
    for child in ast.iter_child_nodes(node):
        # a function's arguments, defaults and decorators belong to the
        # enclosing scope, its body to its own
        yield from loaded_names(child, inner if child in body else bound)


def reach(roots):
    """(names reached from roots, every public top-level name)."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    defs = {m: top_level_definitions(tree) for m, tree in trees.items()}
    imports = {m: relative_imports(tree) for m, tree in trees.items()}

    def refers_to(module, node):
        for name, attr in loaded_names(node):
            target = imports[module].get(name)
            if attr is None and name in defs[module]:
                yield module, name
            elif attr is None and target and target[1] is not None:
                yield target
            elif attr is not None and target and target[1] is None:
                yield target[0], attr

    reached = set()
    todo = list(roots)
    while todo:
        key = todo.pop()
        if key in reached or key[1] not in defs.get(key[0], {}):
            continue
        reached.add(key)
        todo.extend(refers_to(key[0], defs[key[0]][key[1]]))
    public = {(m, name) for m, d in defs.items() for name in d
              if not name.startswith("_")}
    return reached, public


def test_every_public_name_is_reached_or_kept_for_a_reason():
    reached, public = reach(ENTRY_POINTS + list(KEEP))
    assert sorted(public - reached) == []
    assert sorted(set(KEEP) - public) == [], "keep-set names that no longer exist"


def test_keep_set_holds_only_names_the_entry_points_miss():
    reached, _ = reach(ENTRY_POINTS)
    assert sorted(set(KEEP) & reached) == []
