"""Seeded inputs of the six workloads.

Everything a workload feeds the program under test is made here from
the ``--seed`` and nothing else: datasets, rule texts, query texts,
request streams, and write sequences.  The program only ever receives
these generated inputs -- never the seed.

Request streams are *balanced*: each block is a seeded permutation of
the workload's texts, so "uniform" holds exactly and the median latency
does not wander with the luck of the draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import networkx as nx

from repro import Database, Query, parse_program
from repro.datasets import CompanyConfig, build_company
from repro.datasets.company import COLORS
from repro.datasets.genealogy import chain_family

#: The served rule program: a recursive chain of command over the
#: ``mentor`` edge and a non-recursive counting view over vehicles.
SERVE_RULES = """\
X[commandChain ->> {Y}] <- X[mentor -> Y].
X[commandChain ->> {Z}] <- X[commandChain ->> {Y}], Y[mentor -> Z].
X[redOwner -> 1] <- X[vehicles ->> {V}], V[color -> red].
"""

#: The paper's views: address restructuring (2.4) and EmployeeBoss
#: (6.1/6.3) -- scalar paths in heads create one virtual object each.
VIEW_RULES = """\
X.address[street -> X.street; city -> X.city] <- X : person.
X.empBoss[worksFor -> D] <- X : employee[worksFor -> D].
"""

#: The paper's two-dimensional path (1.4) and the counting view.
PATH_2D = ("X : employee[age -> A]..vehicles : automobile"
           "[cylinders -> 4].color[Z]")
RED_OWNER = "X[redOwner -> 1]"
#: Re-point (and repaint) targets of the write stream, both lanes' total.
WRITE_TARGETS = 32


@dataclass(frozen=True)
class Scale:
    """Sizes of one run; ``SMOKE`` shrinks data, not code paths."""

    chain: int = 768
    digraph: int = 544
    view_employees: int = 3000
    serve_employees: int = 400
    cold_keys: int = 256
    warmup_s: float = 1.5
    preload_entries: int = 10_000
    stream_entries: int = 10_000
    batch: int = 100
    checkpoint_bytes: int = 8_192
    setup_repeats: int = 3


FULL = Scale()
SMOKE = Scale(chain=96, digraph=64, view_employees=200,
              serve_employees=60, cold_keys=40, warmup_s=0.2,
              preload_entries=600, stream_entries=600, batch=100,
              checkpoint_bytes=2_048, setup_repeats=1)


# -- library workloads -------------------------------------------------


def cyclic_digraph(nodes: int, seed: int) -> tuple[Database, nx.DiGraph]:
    """A strongly connected random digraph of ``kids`` edges.

    One Hamiltonian cycle over a seeded permutation plus ``nodes // 2``
    seeded chords: every node reaches every node, so the closure holds
    exactly ``nodes ** 2`` facts whatever the seed -- the derived volume
    (and with the fixed edge count, the join work) is seed-independent
    while the shape is not.
    """
    rng = random.Random(seed)
    order = list(range(nodes))
    rng.shuffle(order)
    graph = nx.DiGraph()
    for index, node in enumerate(order):
        graph.add_edge(f"g{node}", f"g{order[(index + 1) % nodes]}")
    while graph.number_of_edges() < nodes + nodes // 2:
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            graph.add_edge(f"g{a}", f"g{b}")
    db = Database()
    for node in sorted(graph.nodes()):
        db.add_object(node, classes=["person"],
                      sets={"kids": sorted(graph.successors(node))})
    return db, graph


def closure_inputs(scale: Scale, seed: int) -> dict:
    """``{family: (db, graph)}`` for ``tc-closure``."""
    return {"chain": chain_family(scale.chain),
            "digraph": cyclic_digraph(scale.digraph, seed)}


def view_company(scale: Scale, seed: int) -> Database:
    """The company domain with a ``street`` per employee (the address
    view reads ``street`` and ``city``)."""
    size = scale.view_employees
    db = build_company(CompanyConfig(employees=size, seed=seed))
    for index in range(size):
        db.add_object(f"p{index}", scalars={"street": f"street{index % 37}"})
    return db


# -- served workloads --------------------------------------------------


def serve_company(scale: Scale, seed: int) -> Database:
    """The company domain plus a full-length ``mentor`` chain."""
    size = scale.serve_employees
    db = build_company(CompanyConfig(employees=size, seed=seed))
    for index in range(1, size):
        db.add_object(f"p{index}", scalars={"mentor": f"p{index - 1}"})
    return db


def chain_query(key: int) -> str:
    return f"p{key}[commandChain ->> {{Y}}]"


def hot_texts(scale: Scale) -> list[str]:
    """10 texts: 8 chain keys spread along the chain (answer sizes from
    about a fortieth of the chain to nearly all of it) + the 2-D path +
    the counting view.  10 < 16, the demand memo's capacity."""
    size = scale.serve_employees
    keys = [max(1, round(size * (k + 0.2) / 8.2)) for k in range(8)]
    return [chain_query(key) for key in keys] + [PATH_2D, RED_OWNER]


def cold_texts(scale: Scale, seed: int) -> list[str]:
    """``cold_keys`` distinct chain keys: 256 > 16, so the memo thrashes."""
    rng = random.Random(f"cold-{seed}")
    keys = rng.sample(range(1, scale.serve_employees), scale.cold_keys)
    return [chain_query(key) for key in keys]


def balanced_stream(count: int, seed: int, lane: int):
    """Endless indices below ``count``, one seeded permutation per block."""
    rng = random.Random(f"stream-{seed}-{lane}")
    while True:
        block = list(range(count))
        rng.shuffle(block)
        yield from block


def automobiles(db: Database) -> list[tuple[str, str]]:
    """``(car, colour)`` of every automobile, in name order."""
    rows = Query(db).all("V : automobile[color -> C]")
    return sorted((str(row.value("V")), str(row.value("C")))
                  for row in rows)


def write_stream(db: Database, scale: Scale, seed: int, lane: int,
                 lanes: int):
    """Endless single-fact writes for one connection.

    Alternates *mentor re-point* and *vehicle repaint* cycles.  A cycle
    is four writes on one target -- delete the fact, insert the
    alternative, delete that, insert the original -- so inserts and
    deletes alternate and the database is back to its size (and its
    state) after every fourth write.  Targets are split between the
    connections by parity so no two connections ever touch one fact.

    Where along the chain a mentor edge is cut decides how many hot
    memos the deletion reaches (delete-and-rederive work), so the
    re-point targets are a fixed set spread along the chain, visited in
    seeded balanced order like the reads: every run does the same mix
    of cheap and expensive maintenance.
    """
    size = scale.serve_employees
    people = [key for key in
              (max(2, round(size * (k + 0.5) / WRITE_TARGETS))
               for k in range(WRITE_TARGETS))
              if key % lanes == lane]
    cars = [item for index, item in enumerate(automobiles(db))
            if index % lanes == lane][:WRITE_TARGETS]
    for person, auto in zip(balanced_stream(len(people), seed, lane),
                            balanced_stream(len(cars), seed, lane + lanes)):
        key = people[person]
        subject = f"p{key}"
        for mentor in (f"p{key // 2}", f"p{key - 1}"):
            yield ["-scalar", "mentor", subject, []]
            yield ["+scalar", "mentor", subject, [], mentor]
        car, colour = cars[auto]
        other = COLORS[(COLORS.index(colour) + 1) % len(COLORS)]
        for paint in (other, colour):
            yield ["-scalar", "color", car, []]
            yield ["+scalar", "color", car, [], paint]


def apply_change(db: Database, change: list) -> None:
    """Apply one wire-format change to a local database."""
    tag, method, subject, args = change[:4]
    oids = tuple(db.obj(arg) for arg in args)
    if tag == "+scalar":
        db.assert_scalar(db.obj(method), db.obj(subject), oids,
                         db.obj(change[4]))
    elif tag == "-scalar":
        db.retract_scalar(db.obj(method), db.obj(subject), oids)
    elif tag == "+set":
        db.assert_set_member(db.obj(method), db.obj(subject), oids,
                             db.obj(change[4]))
    elif tag == "-set":
        db.retract_set_member(db.obj(method), db.obj(subject), oids,
                              db.obj(change[4]))
    else:
        raise ValueError(f"unsupported change {change!r}")


def preload_batches(scale: Scale, start: int, entries: int) -> list[list]:
    """``entries`` set-member inserts in batches of ``scale.batch``."""
    batches = []
    for begin in range(start, start + entries, scale.batch):
        batches.append([["+set", "kids", f"b{n}", [], f"c{n}"]
                        for n in range(begin, begin + scale.batch)])
    return batches


def expected_answers(db: Database, texts: list[str]) -> dict[str, list]:
    """Reference answers through the *other* evaluation path: one full
    fixpoint (``magic=False``), then plain conjunction solving -- the
    server answers the same texts demand-driven through magic sets."""
    query = Query(db, program=parse_program(SERVE_RULES), magic=False)
    return {text: [answer.values_dict() for answer in query.all(text)]
            for text in texts}
