"""Soundness: the engine's fixpoint model-checks against Definition 5.

After evaluation, every rule of the program must be *entailed* by the
resulting database (for all valuations, body implies head).  The
:func:`repro.core.entailment.rule_holds` oracle enumerates valuations,
so this is an exponential but definition-faithful cross-check of the
whole engine pipeline on small programs.
"""

import pytest

from repro.core.entailment import rule_holds
from repro.engine import Engine
from repro.lang.parser import parse_program
from repro.oodb.database import Database

PROGRAMS = {
    "intensional-method": """
        car1 : automobile. car1[engine -> e1]. e1[power -> 90].
        X[power -> Y] <- X : automobile.engine[power -> Y].
    """,
    "virtual-boss": """
        p1 : employee. p1[worksFor -> cs1].
        X.boss[worksFor -> D] <- X : employee[worksFor -> D].
    """,
    "address-view": """
        ann : person. ann[street -> mainSt; city -> ny].
        X.address[street -> X.street; city -> X.city] <- X : person.
    """,
    "desc-closure": """
        peter[kids ->> {tim, mary}].
        tim[kids ->> {sally}].
        X[desc ->> {Y}] <- X[kids ->> {Y}].
        X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
    """,
    "stratified-superset": """
        h1 : helper.
        p1[assistants ->> {X}] <- X : helper.
        p2[friends ->> {h1, extra}].
        X[ok -> yes] <- X[friends ->> p1..assistants].
    """,
    "comparison": """
        p1[age -> 70]. p2[age -> 30].
        X[senior -> yes] <- X[age -> A], A >= 65.
    """,
    "head-inclusion": """
        p1[assistants ->> {a1, a2}].
        p2[friends ->> p1..assistants] <- p2 : anchor.
        p2 : anchor.
    """,
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fixpoint_is_a_model(name):
    program = parse_program(PROGRAMS[name])
    out = Engine(Database(), program).run()
    for rule in program:
        assert rule_holds(out, rule, max_assignments=2_000_000), \
            f"rule not entailed after fixpoint: {rule}"


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_fixpoint_equals_the_interpreted_oracle(name):
    """The columnar fixpoint is the one the interpreted matcher reaches."""
    program = parse_program(PROGRAMS[name])
    columnar = Engine(Database(), program)
    oracle = Engine(Database(), program, interpreted=True)
    left, right = columnar.run(), oracle.run()
    assert set(left.scalars.items()) == set(right.scalars.items())
    assert ({key: frozenset(m) for key, m in left.sets.items()}
            == {key: frozenset(m) for key, m in right.sets.items()})
    assert (set(left.hierarchy.declared_edges())
            == set(right.hierarchy.declared_edges()))
    assert (columnar.stats.derived_total, columnar.stats.virtuals_created) \
        == (oracle.stats.derived_total, oracle.stats.virtuals_created)
