"""Seeded input generators and the three benchmark workloads.

Every generator takes the seed as an argument and returns plain fact-file
text; the same seed always gives byte-identical text.  The generators fix
the structural sizes a workload's cost depends on (nodes, out-degree,
items per menu, how many menus support the query) and let the seed choose
only which facts realise them, so that two seeds cost about the same to
evaluate and the run-to-run spread measures the program, not the input.

Besides the fact text each generator returns the answers the benchmark
checks outputs against, computed here in plain Python and never by
`negshapley`.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

TRIANGLE_QUERY = "exists x, y, z. E(x,y), E(y,z), !E(z,x), x != z\n"
RECIPE_QUERY = 'exists x. I(x,"iA"), !I(x,"iB")\n'
CHAIN_QUERY = "exists x, y. A(x), R(x,y), !A(y) | exists x. A(x), B(x)\n"


def _rng(family: str, seed: int, label: str) -> random.Random:
    # Seeding with a string is stable across processes and hash seeds.
    return random.Random(f"{family}:{label}:{seed}")


@dataclass(frozen=True)
class Instance:
    """One generated database plus the facts about it the checks rely on."""

    facts_text: str
    query_text: str
    holds: bool  # the query is true on the whole database
    completion_size: int  # players of the restricted signed completion
    supports: int | None = None  # minimal signed (= positive) supports, if known
    signed_size: int | None = None  # size of every minimal signed support
    positive_size: int | None = None  # size of every minimal positive support
    scored_fact: str | None = None  # a fact whose mps score is known to be 1


def graph_instance(seed: int, nodes: int, out_degree: int, label: str) -> Instance:
    """Random directed graph ``E`` where every node has exactly
    ``out_degree`` successors (no self-loops), under the triangle query."""
    rng = _rng("graph", seed, label)
    names = [f"v{i}" for i in range(nodes)]
    rng.shuffle(names)
    edges = set()
    for i, source in enumerate(names):
        others = names[:i] + names[i + 1 :]
        edges.update((source, target) for target in rng.sample(others, out_degree))
    # Every node has an out-edge, so the active domain is exactly the nodes.
    triples = {
        (x, y, z)
        for x, y in edges
        for y2, z in edges
        if y2 == y and x != z and (z, x) not in edges
    }
    lines = sorted(f"E({a},{b})" for a, b in edges)  # sets iterate in hash order
    rng.shuffle(lines)
    return Instance(
        facts_text="\n".join(lines) + "\n",
        query_text=TRIANGLE_QUERY,
        holds=bool(triples),
        completion_size=nodes * nodes,
        # Without self-loops each (x, y, z) has its own image of three
        # distinct signed facts, all of size 3 and hence all minimal.
        supports=len(triples),
        signed_size=3,
        positive_size=2,
    )


def recipe_instance(
    seed: int, menus: int, items: int, per_menu: int, label: str
) -> Instance:
    """``I(menu,item)`` with exactly ``per_menu`` items per menu, under the
    query "some menu has iA but not iB".

    The menus split into four equal shares by whether they hold iA and iB,
    so exactly ``menus // 4`` of them support the query.
    """
    if menus % 4 or not 3 <= per_menu <= items - 2 or menus < items:
        raise ValueError("need menus divisible by 4, 3 <= per_menu <= items - 2 "
                         "and menus >= items")
    rng = _rng("recipe", seed, label)
    plain = [f"i{j}" for j in range(items - 2)]
    patterns = [(a, b) for a in (True, False) for b in (True, False)] * (menus // 4)
    rng.shuffle(patterns)
    menu_names = [f"m{i}" for i in range(menus)]
    rng.shuffle(menu_names)
    lines = []
    supporting = []
    for i, (menu, (has_a, has_b)) in enumerate(zip(menu_names, patterns)):
        chosen = {"iA"} if has_a else set()
        if has_b:
            chosen.add("iB")
        # The first menus each take one plain item in turn, so every item
        # occurs and the active domain is exactly menus plus items.
        if i < len(plain):
            chosen.add(plain[i])
        pool = [item for item in plain if item not in chosen]
        chosen.update(rng.sample(pool, per_menu - len(chosen)))
        lines.extend(f"I({menu},{item})" for item in chosen)
        if has_a and not has_b:
            supporting.append(menu)
    lines.sort()
    rng.shuffle(lines)
    domain = menus + items
    return Instance(
        facts_text="\n".join(lines) + "\n",
        query_text=RECIPE_QUERY,
        holds=bool(supporting),
        completion_size=domain * domain,
        supports=len(supporting),
        signed_size=2,
        positive_size=1,
        scored_fact=f"I({min(supporting)},iA)",
    )


def chain_instance(seed: int, length: int, label: str) -> Instance:
    """A fully ``A``-labelled path of ``length`` ``R`` edges with ``B`` at its
    end, under the two-disjunct chain query (the shape of
    ``tests/instances.monotone_chain``).  The seed picks the constant names
    and the line order."""
    rng = _rng("chain", seed, label)
    names = rng.sample(range(10 * (length + 1)), length + 1)
    nodes = [f"c{n}" for n in names]
    lines = [f"A({c})" for c in nodes]
    lines += [f"R({a},{b})" for a, b in zip(nodes, nodes[1:])]
    lines.append(f"B({nodes[-1]})")
    rng.shuffle(lines)
    return Instance(
        facts_text="\n".join(lines) + "\n",
        query_text=CHAIN_QUERY,
        holds=True,
        # A is the only negated relation and it holds on every node.
        completion_size=len(lines),
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments after ``negshapley`` (the subcommand
    first), the instance it reads and the exit code it must return."""

    argv: tuple[str, ...]
    instance: str
    expect_exit: int = 0


@dataclass
class Workload:
    name: str
    instances: dict[str, Instance]
    invocations: list[Invocation] = field(default_factory=list)

    def write(self, directory: Path) -> None:
        """Write ``<instance>.facts`` and ``<instance>.q`` for every instance."""
        directory.mkdir(parents=True, exist_ok=True)
        for name, inst in self.instances.items():
            (directory / f"{name}.facts").write_text(inst.facts_text, encoding="utf-8")
            (directory / f"{name}.q").write_text(inst.query_text, encoding="utf-8")


def _io(instance: str) -> tuple[str, ...]:
    return ("--db", f"{instance}.facts", "--query", f"{instance}.q")


def _call(command: str, instance: str, *extra: str) -> Invocation:
    return Invocation((command, *_io(instance), *extra), instance)


# Sizes where one invocation takes between a tenth of a second and a few
# seconds on a 2-core host with Python 3.11; a smoke run shrinks them.
SIZES = {
    "full": {
        "small_graph": (5, 2),
        "chain": 4,
        "score_graph": (7, 3),
        "score_recipe": (100, 20, 10),
        "scan_graph": (60, 4),
        "scan_recipe": (152, 30, 15),
    },
    "smoke": {
        "small_graph": (4, 2),
        "chain": 2,
        "score_graph": (4, 2),
        "score_recipe": (8, 6, 3),
        "scan_graph": (6, 2),
        "scan_recipe": (8, 6, 3),
    },
}


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload ``name`` with inputs generated from ``seed``."""
    size = SIZES[scale]
    if name == "coalition-games":
        # Query re-evaluation over every coalition of a few facts: the game
        # layer, with support enumeration and completion negligible.
        wl = Workload(name, {
            "graph": graph_instance(seed, *size["small_graph"], "graph"),
            "chain": chain_instance(seed, size["chain"], "chain"),
        })
        wl.invocations = [
            _call("score", "graph", "--measure", "drastic", "--format", "json"),
            _call("score", "graph", "--measure", "positive-drastic",
                  "--format", "json"),
            _call("relevance", "graph"),
            _call("supports", "chain", "--kind", "dmonotone"),
            _call("compare", "chain", "--format", "json"),
        ]
    elif name == "ms-score":
        # The closed-form route once per target with both weights, two ways:
        # few players with many candidate sets (graph) and many players
        # with trivial supports (recipe).  The supports and relevance
        # listings are what a user reads next to the scores, and the checks
        # use them.
        wl = Workload(name, {
            "graph": graph_instance(seed, *size["score_graph"], "graph"),
            "recipe": recipe_instance(seed, *size["score_recipe"], "recipe"),
        })
        wl.invocations = [
            _call("supports", "graph", "--kind", "signed"),
            _call("score", "graph", "--measure", "ms-signed", "--format", "json"),
            _call("score", "graph", "--measure", "ms-signed",
                  "--weight", "constant", "--format", "json"),
            _call("relevance", "graph"),
            _call("supports", "recipe", "--kind", "positive"),
            _call("score", "recipe", "--measure", "mps", "--format", "json"),
            _call("score", "recipe", "--measure", "mps", "--weight", "constant",
                  "--format", "json"),
        ]
    elif name == "supports-scan":
        # Loading, completion, assignment search and minimality filtering
        # on large inputs; signed and positive kinds run the same search
        # with and without the scan over negative facts.  The single-fact
        # score is the only scoring call, so a change to per-target scoring
        # barely moves this workload.
        wl = Workload(name, {
            "graph": graph_instance(seed, *size["scan_graph"], "graph"),
            "recipe": recipe_instance(seed, *size["scan_recipe"], "recipe"),
        })
        recipe_fact = wl.instances["recipe"].scored_fact
        wl.invocations = [
            _call("supports", "graph", "--kind", "signed"),
            _call("supports", "graph", "--kind", "positive"),
            _call("relevance", "graph"),
            _call("supports", "recipe", "--kind", "signed"),
            _call("supports", "recipe", "--kind", "positive"),
            _call("relevance", "recipe"),
            _call("score", "recipe", "--measure", "mps", "--fact", recipe_fact,
                  "--format", "json"),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}")
    return wl


WORKLOADS = ("coalition-games", "ms-score", "supports-scan")
