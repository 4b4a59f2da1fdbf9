"""Property: demand-driven evaluation never changes query answers.

Random small programs over random databases, queried through the
``Query(db, program=...)`` front door: ``magic=True`` (demand-driven),
``magic=False`` (materialise the full fixpoint), and the interpreted
oracle (``interpreted=True``) must return identical answer sets for
every query.  This pins the tentpole invariant of the magic-set
rewrite: guarding rules with demand atoms restricts *work*, never
*answers* -- including when parts of the program fall back to full
evaluation (negation, superset sources, recursive demand).

Rule heads write only fresh methods (``d1``..``d6``) or constant
results, so derived facts never conflict with stored scalar facts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang.parser import parse_program
from repro.query import Query
from tests.property.strategies import databases

pytestmark = pytest.mark.property

RULE_POOL = (
    # plain projection of a base set method
    "X[d1 ->> {Y}] <- X[kids ->> {Y}].",
    # recursion: transitive closure over kids, demanded both ways
    "X[d1 ->> {Z}] <- X[d1 ->> {Y}], Y[kids ->> {Z}].",
    # scalar derived method with a join
    "X[d2 -> 1] <- X[a ->> {Y}], Y[color -> red].",
    # derived-from-derived chain
    "X[d3 ->> {Y}] <- X[d1 ->> {Y}], Y : c1.",
    # negation: d4 needs the *complete* kids relation (fallback path)
    "X[d4 -> yes] <- X : c1, not X[kids ->> {K}].",
    # body superset source (fallback path for `a`)
    "X[d5 -> yes] <- X[kids ->> p1..a].",
    # isa-defining rule (fallback path for isa readers)
    "X : c9 <- X[boss -> Y].",
)

#: Selective queries: constants at subject or result positions drive
#: the adornments; unbound and mixed forms sweep the fallback paths.
QUERY_POOL = (
    "p1[d1 ->> {Y}]",
    "X[d1 ->> {b}]",
    "p2[d1 ->> {Y}], Y[color -> C]",
    "a[d2 -> V]",
    "p1[d3 ->> {Y}]",
    "X[d4 -> F]",
    "p1[d5 -> F]",
    "X : c9",
    "X[d1 ->> {Y}]",
)


def _answers(db, program, query, **kwargs):
    rows = Query(db, program=program, **kwargs).all(query)
    return [row.sort_key() for row in rows]


@given(
    db=databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=5,
                   unique=True),
    query=st.sampled_from(QUERY_POOL),
)
@settings(max_examples=60, deadline=None)
def test_magic_full_and_interpreted_answers_identical(db, rules, query):
    program = parse_program("\n".join(rules))
    magic = _answers(db, program, query, magic=True)
    full = _answers(db, program, query, magic=False)
    interpreted = _answers(db, program, query, magic=True, interpreted=True)
    full_interpreted = _answers(db, program, query, magic=False,
                                interpreted=True)
    assert magic == full == interpreted == full_interpreted


@given(
    db=databases(),
    rules=st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=4,
                   unique=True),
    query=st.sampled_from(QUERY_POOL),
)
@settings(max_examples=40, deadline=None)
def test_demand_never_derives_more_than_full(db, rules, query):
    from repro.engine import Engine
    from repro.engine.magic import MAGIC_PREFIX, DemandEngine
    from repro.oodb.oid import NamedOid

    program = parse_program("\n".join(rules))
    full_engine = Engine(db, program)
    full_db = full_engine.run()
    demand = DemandEngine(db, program, query)
    demand_db = demand.run()
    # Every non-magic fact derived on demand exists in the full fixpoint.
    full_scalars = set(full_db.scalars.items())
    for key, value in demand_db.scalars.items():
        assert (key, value) in full_scalars
    full_sets = {(key, member) for key, bucket in full_db.sets.items()
                 for member in bucket}
    for key, bucket in demand_db.sets.items():
        method = key[0]
        if isinstance(method, NamedOid) \
                and str(method.value).startswith(MAGIC_PREFIX):
            continue
        for member in bucket:
            assert (key, member) in full_sets
