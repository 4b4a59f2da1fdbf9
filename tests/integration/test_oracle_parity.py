"""The benchmarked program shapes, production path against the oracle.

The performance ledger runs four program shapes: the paper's
specialised and generic transitive closures, its address/EmployeeBoss
views (virtual objects), and the served command-chain program with its
counting view.  On small instances of each, the production path --
columnar fixpoints, columnar ad-hoc queries, magic rewriting,
incremental maintenance -- must give exactly what the interpreted
matcher gives (``interpreted=True``): the same facts and derivation
counters, the same virtual objects, the same answers before and after
base changes.
"""

import pytest

from repro import Engine, Query, parse_program
from repro.datasets import CompanyConfig, build_company, build_family
from repro.datasets import desc_rules, generic_tc_rules
from repro.datasets.genealogy import chain_family

VIEW_RULES = """
    X.address[street -> X.street; city -> X.city] <- X : person.
    X.empBoss[worksFor -> D] <- X : employee[worksFor -> D].
"""

SERVE_RULES = """
    X[commandChain ->> {Y}] <- X[mentor -> Y].
    X[commandChain ->> {Z}] <- X[commandChain ->> {Y}], Y[mentor -> Z].
    X[redOwner -> 1] <- X[vehicles ->> {V}], V[color -> red].
"""

EMPLOYEES = 30


def _company(**extra):
    db = build_company(CompanyConfig(employees=EMPLOYEES, seed=5))
    for index in range(EMPLOYEES):
        scalars = {name: make(index) for name, make in extra.items()
                   if make(index) is not None}
        db.add_object(f"p{index}", scalars=scalars)
    return db


def _views():
    return (_company(street=lambda i: f"street{i % 7}"),
            parse_program(VIEW_RULES))


def _served():
    return (_company(mentor=lambda i: f"p{i - 1}" if i else None),
            parse_program(SERVE_RULES))


SHAPES = {
    "desc-chain": lambda: (chain_family(24)[0], desc_rules()),
    "desc-family": lambda: (build_family(5, 3, roots=2, seed=1)[0],
                            desc_rules()),
    "generic-tc": lambda: (build_family(3, 2, seed=4)[0],
                           generic_tc_rules()),
    "views": _views,
    "served": _served,
}


def _facts(db):
    return (set(db.scalars.items()),
            {(key, frozenset(bucket)) for key, bucket in db.sets.items()},
            set(db.hierarchy.declared_edges()))


def _counters(stats):
    return (stats.iterations, stats.firings, stats.derived_total,
            stats.tuples, stats.virtuals_created)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_fixpoint_matches_the_oracle(shape):
    db, rules = SHAPES[shape]()
    columnar = Engine(db, rules)
    oracle = Engine(db, rules, interpreted=True)
    assert _facts(columnar.run()) == _facts(oracle.run())
    assert _counters(columnar.stats) == _counters(oracle.stats)
    assert columnar.stats.plans_compiled > 0
    assert oracle.stats.plans_compiled == 0


@pytest.mark.parametrize("reference", ["X.address", "X.empBoss.worksFor"])
def test_virtual_identity_matches_the_oracle(reference):
    db, rules = _views()
    denotations = [Query(db, program=rules,
                         interpreted=interpreted).objects(reference)
                   for interpreted in (False, True)]
    assert denotations[0] == denotations[1]
    assert len(denotations[0]) > 1


@pytest.mark.parametrize("magic", [True, False])
def test_served_answers_match_the_oracle_under_changes(magic):
    db, rules = _served()
    db.begin_changes()
    texts = ["p20[commandChain ->> {Y}]", "p7[commandChain ->> {Y}]",
             "X[redOwner -> 1]",
             "X : employee[age -> A]..vehicles : automobile"
             "[cylinders -> 4].color[Z]",
             # The flagship path, subject-first from a class extent,
             # and an inverse conjunction (subjects unbound, results
             # bound) that starts from the method+result indexes.
             "X : employee[city -> C]..vehicles : automobile"
             "[cylinders -> 4].color[Z]",
             "Y[color -> red], Y[cylinders -> 8], Y[producedBy -> P], "
             "P[city -> detroit]"]
    queries = [Query(db, program=rules, magic=magic,
                     interpreted=interpreted)
               for interpreted in (False, True)]
    mentor, color = db.obj("mentor"), db.obj("color")
    changes = [
        lambda: db.retract_scalar(mentor, db.obj("p12"), ()),
        lambda: db.assert_scalar(mentor, db.obj("p12"), (), db.obj("p3")),
        lambda: db.add_object("v99", classes=["automobile"],
                              scalars={"color": "red", "cylinders": 4}),
        lambda: db.assert_set_member(db.obj("vehicles"), db.obj("p20"), (),
                                     db.obj("v99")),
        lambda: db.retract_scalar(color, db.obj("v99"), ()),
    ]
    for change in [None, *changes]:
        if change is not None:
            change()
        scratch = Query(db.clone(), program=rules, magic=magic)
        for text in texts:
            expected = scratch.all(text)
            assert [query.all(text) for query in queries] \
                == [expected, expected], text
