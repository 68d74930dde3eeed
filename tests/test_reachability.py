"""Every public top-level name under ``src/axsim`` is reached from the
simulator's entry points, and every class member is read, or each is kept
for a stated reason.

The walk starts at the runner's entry points and ``engine.RunContext`` and
follows, through the source's syntax tree, every name a reached definition
refers to: a name of its own module, one imported with ``from .m import x``,
or ``m.x`` on a module imported with ``from . import m``.  Names a function
binds itself (its arguments and assignments) do not refer to the module.

A class member is a method, property or annotated field of a class under
``src/axsim``; dunder methods, which Python calls itself, are left out.  It
counts as read if some attribute load under ``src/axsim`` reads it.  A
``self.member`` load in a method reads the member of the method's class, of
its bases and of its subclasses, and no other.  Any other ``x.member`` load
is matched by name alone, so it reads every member of that name.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "axsim"

ENTRY_POINTS = [("runner", "run"), ("runner", "compare"), ("runner", "sweep"),
                ("engine", "RunContext")]

# frames.Mpdu goes with the benchmark's frames.mpdu_compares counter
BENCH_MPDU = "bench probe: frames.mpdu_compares wraps Mpdu.__eq__"

# Unreached names that stay, each with its reason.
KEEP = {
    ("ru", "PunctureMode"): "ROADMAP item 6: secondary-channel access",
    ("ru", "resolve_puncture"): "ROADMAP item 6: secondary-channel access",
    ("config", "RATE_SWEEPS_MBPS"): "ROADMAP item 7: the paper's load sweeps",
    ("config", "MULTI_BSS_SWEEP_MBPS"): "ROADMAP item 7: the paper's load sweeps",
    ("runner", "write_results_csv"): "ROADMAP item 7: results files",
    ("runner", "write_energy_csv"): "ROADMAP item 7: results files",
    ("runner", "summary_table"): "ROADMAP item 7: results table",
    ("frames", "Mpdu"): BENCH_MPDU,
    ("spatial", "max_sr_tx_power"): "bench probe: spatial.max_sr_tx_power.calls",
    ("spatial", "obss_pd_level"): "test reference: the level max_sr_tx_power inverts",
    ("ru", "validate_layout"): "test reference: checks the engine's RU plan",
    ("ru", "layout_catalog"): "test reference: pins the 20 MHz RU divisions",
    ("config", "load_config"): "test reference: scenario files read into ScenarioConfig",
    ("core", "MS"): "test reference: the time unit tests write in",
}

# Class members no code under src/axsim reads, each with its reason.
KEEP_MEMBERS = {
    ("frames", "Mpdu", "destination"): BENCH_MPDU,
    ("frames", "Mpdu", "payload_bytes"): BENCH_MPDU,
    ("frames", "Mpdu", "seq"): BENCH_MPDU,
    ("power", "EnergyAccount", "total_ns"): "ROADMAP item 2: the ledger covers the run",
    ("metrics", "MetricsReport", "cdf"): "ROADMAP item 7: the paper's throughput CDFs",
    ("mu", "MultiStaBa", "acked_stas"): "test reference: the Fig. 18 UORA walk-through",
    ("medium", "Transmission", "payload"): "test reference: the MAC frame of a TF or MBA",
    ("phy", "PathLossModel", "indoor"): "test reference: the indoor loss profile",
    ("phy", "PathLossModel", "outdoor"): "test reference: the outdoor loss profile",
    ("topo", "Placement", "pos"): "test reference: node spacing in the topologies",
    ("topo", "Topology", "aps"): "test reference: AP counts of the topologies",
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


def parse_sources() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def class_members(trees: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    """(module, class, member) for every method, property and annotated
    field of every class, dunder methods left out."""
    members = set()
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    members.add((module, cls.name, name))
    return members


def class_family(trees: dict[str, ast.Module]) -> dict[str, set[str]]:
    """Each class name -> itself, its bases and its subclasses, over the
    classes under src/axsim (whose names are unique)."""
    bases = {cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
             for tree in trees.values() for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef)}

    def ancestors(name):
        out = set()
        for base in bases.get(name, ()):
            out |= {base} | ancestors(base)
        return out

    up = {name: ancestors(name) for name in bases}
    return {name: {name} | up[name] | {sub for sub in bases if name in up[sub]}
            for name in bases}


def attribute_loads(trees: dict[str, ast.Module]
                    ) -> tuple[set[str], set[tuple[str, str]]]:
    """(attribute names some non-self ``x.attr`` reads, (class, attr) for
    each ``self.attr`` a method of the class reads); stores, augmented
    assignments and deletions do not count."""
    by_name = set()
    by_class = set()
    for tree in trees.values():
        self_loads = set()
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        or not item.args.args or item.args.args[0].arg != "self":
                    continue
                for node in ast.walk(item):
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                            and isinstance(node.value, ast.Name) and node.value.id == "self":
                        by_class.add((cls.name, node.attr))
                        self_loads.add(node)
        by_name |= {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and node not in self_loads}
    return by_name, by_class


def unread_members(trees: dict[str, ast.Module]) -> set[tuple[str, str, str]]:
    by_name, by_class = attribute_loads(trees)
    family = class_family(trees)
    read = {(kin, attr) for cls, attr in by_class for kin in family[cls]}
    return {key for key in class_members(trees)
            if key[2] not in by_name and key[1:] not in read}


def reach(roots):
    """(names reached from roots, every public top-level name)."""
    trees = parse_sources()
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


def test_every_class_member_is_read_or_kept_for_a_reason():
    trees = parse_sources()
    assert sorted(unread_members(trees) - set(KEEP_MEMBERS)) == []
    assert sorted(set(KEEP_MEMBERS) - class_members(trees)) == [], \
        "keep-set members that no longer exist"


def test_member_keep_set_holds_only_members_nothing_reads():
    trees = parse_sources()
    read = class_members(trees) - unread_members(trees)
    assert sorted(set(KEEP_MEMBERS) & read) == []


def test_a_self_read_reaches_only_its_class_family():
    # Other.late is read only as Base's self.late, and Base.run not at all;
    # Sub.hook is read as Base's self.hook, Base.shared as Sub's self.shared
    # and Other.named by name
    tree = ast.parse(
        "class Base:\n"
        "    shared: int\n"
        "    def run(self):\n"
        "        return self.hook() + self.late\n"
        "class Sub(Base):\n"
        "    def hook(self):\n"
        "        return self.shared\n"
        "class Other:\n"
        "    late: int\n"
        "    named: int\n"
        "def use(other):\n"
        "    return other.named\n")
    assert unread_members({"m": tree}) == {("m", "Base", "run"), ("m", "Other", "late")}
