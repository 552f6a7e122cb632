import os
import random
import sys
from pathlib import Path
from typing import Sequence

import pytest
from hypothesis import strategies as st

REPO_ROOT = Path(__file__).resolve().parent.parent

# The package is imported from src/, here and in the ``python -m cachecap``
# children the tests start, which inherit PYTHONPATH.
_SRC = str(REPO_ROOT / "src")
sys.path[:0] = [_SRC]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from cachecap import FileClass, Link, Network, Node, load_scenario  # noqa: E402

SCENARIO_DIR = REPO_ROOT / "scenarios"
FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"


# Shipped CLI JSON reports and the arguments that produce them (run from the
# repo root). Regenerate a fixture with ``python3 -m cachecap <args>``. Each
# entry also has a text fixture, ``<name>.txt``: the default stdout of the same
# arguments without ``--json`` (see ``text_fixture``).
CLI_FIXTURES = [
    ("fig1.capacity.json", ["capacity", "scenarios/fig1.json", "--json"]),
    ("fig2.capacity.json", ["capacity", "scenarios/fig2.json", "--json"]),
    ("fig2-shared.capacity.json", ["capacity", "scenarios/fig2-shared.json", "--json"]),
    ("three-file.capacity.json", ["capacity", "scenarios/three-file.json", "--json"]),
    ("empty.capacity.json", ["capacity", "scenarios/empty.json", "--json"]),
    ("fig1.optimal-w2.json", ["optimal", "scenarios/fig1.json", "w2", "--json"]),
    (
        "fig1.efficiency-optimal-w2.json",
        ["efficiency", "scenarios/fig1.json", "w2", "--optimal", "--json"],
    ),
    ("three-file.oracle-n.json", ["oracle", "scenarios/three-file.json", "n", "--tmax", "60", "--json"]),
    (
        "fig2-vs-shared.compare.json",
        ["compare", "scenarios/fig2.json", "scenarios/fig2-shared.json", "--json"],
    ),
]

# Two traces over three-file's classes, at block orders 0-3. The first is
# ``gen-trace tests/fixtures/three-file.markov-source.json --n 400 --seed 7``;
# in the second, the last 3-block occurs only at the end.
CLI_FIXTURES += [
    (
        f"three-file.efficiency-trace-{trace}-o{order}.json",
        [
            "efficiency", "scenarios/three-file.json", "n",
            "--trace", f"tests/fixtures/three-file.{trace}.trace", "--order", str(order), "--json",
        ],
    )
    for trace in ("markov-s7", "last-block-new")
    for order in range(4)
]


# Terms of a catalog whose first Newton step moves x0 by under 10 % but ends
# 24 % below the root (2.656 against 3.485).
SHORT_STEP_TERMS = (
    (1, 10.049630500341234),
    (2685580, 17.296244681143897),
    (2, 1.1605562011450856),
    (4, 4.0),
    (1832757, 16.0),
    (6, 2.0),
    (4384933, 18.09699628831444),
    (409867, 14.88471472219819),
    (8, 10.512945510800574),
)


# Terms of a catalog whose lower bound on the root is s = log2(x0) of about
# 39,755, far beyond the 1024 at which 2**s overflows a double.
FAR_ROOT_TERMS = ((933, 0.00077399), (8_690_949, 0.00057983))


def text_fixture(fixture: str, args: list[str]) -> tuple[str, list[str]]:
    """The text fixture's file name and arguments for a ``CLI_FIXTURES`` entry."""
    return Path(fixture).with_suffix(".txt").name, [a for a in args if a != "--json"]


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / name


@pytest.fixture(scope="session")
def fig1() -> Network:
    return load_scenario(scenario_path("fig1.json"))


@pytest.fixture(scope="session")
def fig2() -> Network:
    return load_scenario(scenario_path("fig2.json"))


@pytest.fixture(scope="session")
def fig2_shared() -> Network:
    return load_scenario(scenario_path("fig2-shared.json"))


@pytest.fixture(scope="session")
def three_file() -> Network:
    return load_scenario(scenario_path("three-file.json"))


def single_node_network(terms: Sequence[tuple[int, float]]) -> tuple[Network, str]:
    """One node reading its own classes; one (count, time) term per class."""
    classes = tuple(FileClass(id=f"c{i}", count=count) for i, (count, _) in enumerate(terms))
    node = Node(id="n", stores=frozenset(fc.id for fc in classes))
    links = tuple(
        Link(reader="n", provider="n", time=time, classes=frozenset({f"c{i}"}))
        for i, (_, time) in enumerate(terms)
    )
    return Network(classes=classes, nodes=(node,), links=links), "n"


def scale_times(net: Network, s: float) -> Network:
    """Copy of a network with every link time multiplied by s."""
    return Network(
        classes=net.classes,
        nodes=net.nodes,
        links=tuple(
            Link(reader=l.reader, provider=l.provider, time=l.time * s, classes=l.classes)
            for l in net.links
        ),
    )


def random_terms(
    rng: random.Random,
    max_classes: int = 6,
    max_files: int = 50,
    time_range: tuple[float, float] = (0.1, 20.0),
    integer_times: bool = False,
) -> list[tuple[int, float]]:
    """Random catalog terms with 2..max_files files spread over a few classes."""
    n_classes = rng.randint(1, max_classes)
    counts = [1] * n_classes
    extra = rng.randint(max(0, 2 - n_classes), max_files - n_classes)
    for _ in range(extra):
        counts[rng.randrange(n_classes)] += 1
    lo, hi = time_range
    if integer_times:
        times = [float(rng.randint(max(1, int(lo)), int(hi))) for _ in range(n_classes)]
    else:
        times = [rng.uniform(lo, hi) for _ in range(n_classes)]
    return list(zip(counts, times))


@st.composite
def link_networks(draw) -> Network:
    """Random networks with duplicate links, equal-time ties between providers,
    class-restricted links and nodes that read over no link. The first node
    stores something, and at least half of the nodes, rounded up, read from a
    node that does."""
    class_ids = sorted(draw(st.sets(st.sampled_from("abcde"), min_size=1)))
    ids = sorted(draw(st.sets(st.sampled_from(["n1", "n2", "n3", "n4"]), min_size=1)))
    classes = tuple(FileClass(id=c, count=draw(st.integers(1, 10**7))) for c in class_ids)
    nodes = tuple(
        Node(id=n, stores=frozenset(draw(st.sets(st.sampled_from(class_ids), min_size=least))))
        for n, least in zip(ids, [1, 0, 0, 0])
    )

    def link(reader: str, providers: Sequence[Node]) -> Link:
        provider = draw(st.sampled_from(providers))
        subset = None
        if provider.stores and draw(st.booleans()):
            subset = frozenset(draw(st.sets(st.sampled_from(sorted(provider.stores)), min_size=1)))
        time = draw(st.sampled_from([1.0, 2.0, 2.5, 4.0]))  # few values: many ties
        return Link(reader=reader, provider=provider.id, time=time, classes=subset)

    storing = [n for n in nodes if n.stores]
    readers = draw(st.permutations(ids))[: (len(ids) + 1) // 2]
    links = [link(reader, storing) for reader in readers]
    links += [link(draw(st.sampled_from(ids)), nodes) for _ in range(draw(st.integers(0, 8)))]
    links = draw(st.permutations(links))
    if links and draw(st.booleans()):
        links.insert(draw(st.integers(0, len(links))), draw(st.sampled_from(links)))
    return Network(classes=classes, nodes=nodes, links=tuple(links))
