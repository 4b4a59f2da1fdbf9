"""Magic-set rewriting: demand propagation, fallbacks, parity, stats."""

import pytest

from repro.datasets.genealogy import chain_family, desc_rules
from repro.engine import Engine
from repro.engine.magic import (
    ANCHOR,
    DemandEngine,
    MAGIC_PREFIX,
    magic_name,
    query_to_atoms,
    rewrite_for_query,
)
from repro.engine.normalize import normalize_program
from repro.lang.parser import parse_program
from repro.oodb.database import Database
from repro.query import Query


def answers(db, text):
    return [a.sort_key() for a in Query(db).all(text)]


@pytest.fixture
def chain():
    db, _ = chain_family(12)
    return db


class TestRewriteShape:
    def test_recursive_rules_are_guarded(self, chain):
        rules = normalize_program(desc_rules())
        rewrite = rewrite_for_query(
            chain, rules, query_to_atoms("c2[desc ->> {Y}]"))
        assert len(rewrite.rewritten) == 2
        assert all(entry.adornment == "bf" for entry in rewrite.rewritten)
        assert len(rewrite.seeds) == 1
        assert magic_name(("set", "desc"), "bf") in str(rewrite.seeds[0])
        assert ANCHOR in str(rewrite.seeds[0])
        assert not rewrite.fallbacks

    def test_guard_is_first_body_atom(self, chain):
        rules = normalize_program(desc_rules())
        rewrite = rewrite_for_query(
            chain, rules, query_to_atoms("c2[desc ->> {Y}]"))
        for entry in rewrite.rewritten:
            guard = entry.variant.body[0]
            assert guard.method.value.startswith(MAGIC_PREFIX)
            assert entry.variant.body[1:] == entry.source.body

    def test_result_bound_query_gets_fb_adornment(self, chain):
        rules = normalize_program(desc_rules())
        rewrite = rewrite_for_query(
            chain, rules, query_to_atoms("X[desc ->> {c5}]"))
        assert {entry.adornment for entry in rewrite.rewritten} == {"fb"}
        # The recursive rule propagates demand upward through a magic
        # rule seeded by the base `kids` edge.
        assert rewrite.magic_rules

    def test_unbound_query_read_falls_back_entirely(self, chain):
        rules = normalize_program(desc_rules())
        rewrite = rewrite_for_query(
            chain, rules, query_to_atoms("X[desc ->> {Y}]"))
        assert not rewrite.rewritten
        assert len(rewrite.fallbacks) == 2
        assert any("no bound position" in reason
                   for _, reason in rewrite.fallbacks)

    def test_unreachable_rules_are_dropped(self, chain):
        program = parse_program("""
            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[other -> 1] <- X[age -> 30].
        """)
        rewrite = rewrite_for_query(
            chain, normalize_program(program),
            query_to_atoms("c2[desc ->> {Y}]"))
        assert rewrite.dropped == 1
        assert len(rewrite.rewritten) == 1


class TestFallbackReasons:
    def test_negation_in_body_falls_back(self, chain):
        program = parse_program("""
            X[quiet -> yes] <- X : person, not X[kids ->> {K}].
        """)
        rewrite = rewrite_for_query(
            chain, normalize_program(program),
            query_to_atoms("c3[quiet -> F]"))
        assert not rewrite.rewritten
        assert any("negation" in reason for _, reason in rewrite.fallbacks)

    def test_pred_read_under_negation_is_evaluated_in_full(self, chain):
        program = parse_program("""
            X[busy -> yes] <- X[kids ->> {K}].
            X[quiet -> yes] <- X : person, not X[busy -> yes].
        """)
        rewrite = rewrite_for_query(
            chain, normalize_program(program),
            query_to_atoms("c3[quiet -> F], c0[busy -> B]"))
        reasons = dict(rewrite.fallbacks)
        assert any("negation" in reason or "superset" in reason
                   for reason in reasons.values())
        assert not rewrite.rewritten  # busy must be complete for `not`

    def test_virtual_creating_head_falls_back(self, chain):
        program = parse_program("""
            X.eldest[of -> X] <- X[kids ->> {Y}].
        """)
        rewrite = rewrite_for_query(
            chain, normalize_program(program),
            query_to_atoms("c0.eldest[of -> Z]"))
        assert not rewrite.rewritten
        assert rewrite.fallbacks

    def test_generic_method_rules_fall_back(self, chain):
        from repro.datasets.genealogy import generic_tc_rules

        rewrite = rewrite_for_query(
            chain, normalize_program(generic_tc_rules()),
            query_to_atoms("c0..(kids.tc)[self -> Y]"))
        # Generic-method heads define a computed method object (and the
        # hoisted `tc` path): nothing can be guarded by name.
        assert not rewrite.rewritten
        assert len(rewrite.fallbacks) == 2


class TestParity:
    PROGRAMS = (
        # specialised transitive closure, both directions
        ("""X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[desc ->> {Y}] <- X[desc ->> {Z}], Z[kids ->> {Y}].""",
         ("c2[desc ->> {Y}]", "X[desc ->> {c5}]", "c3[desc ->> {c8}]",
          "X[desc ->> {Y}], Y[kids ->> {c4}]")),
        # mixed base/derived joins with a scalar head
        ("""X[reach -> c0] <- X[kids ->> {K}].
            X[deep ->> {Y}] <- X[kids ->> {Y}], Y[kids ->> {Z}].""",
         ("c1[reach -> R]", "X[deep ->> {c4}]", "c2[deep ->> {Y}]")),
        # fallback interplay: negation forces full evaluation of `busy`
        ("""X[busy -> yes] <- X[kids ->> {K}].
            X[quiet -> yes] <- X : person, not X[busy -> yes].
            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[desc ->> {Y}] <- X[desc ->> {Z}], Z[kids ->> {Y}].""",
         ("c2[desc ->> {Y}], c2[busy -> B]", "X[quiet -> Q]")),
    )

    @pytest.mark.parametrize("case", range(len(PROGRAMS)))
    def test_magic_equals_full_evaluation(self, chain, case):
        text, queries = self.PROGRAMS[case]
        program = parse_program(text)
        full = Engine(chain, program).run()
        for query in queries:
            expected = answers(full, query)
            engine = DemandEngine(chain, program, query)
            got = answers(engine.run(), query)
            assert got == expected, query

    def test_no_program_facts_leak_into_the_source_db(self, chain):
        before = len(chain.sets)
        DemandEngine(chain, desc_rules(), "c2[desc ->> {Y}]").run()
        assert len(chain.sets) == before

    def test_demand_derives_strictly_less(self, chain):
        program = desc_rules()
        full = Engine(chain, program)
        full.run()
        demand = DemandEngine(chain, program, "c9[desc ->> {Y}]")
        demand.run()
        assert demand.stats.derived_total * 4 < full.stats.derived_total


class TestDemandEngineSurface:
    def test_stats_count_seeds_and_rewrites(self, chain):
        engine = DemandEngine(chain, desc_rules(), "c2[desc ->> {Y}]")
        engine.run()
        assert engine.stats.magic_seeds == 1
        assert engine.stats.rules_rewritten == 2
        assert engine.stats.rules_fallback == 0
        row = engine.stats.as_row()
        assert row["magic-seeds"] == 1
        assert row["rules-rewritten"] == 2

    def test_for_query_entry_point(self, chain):
        engine = Engine.for_query(chain, desc_rules(), "c2[desc ->> {Y}]")
        assert isinstance(engine, DemandEngine)
        result = engine.run()
        assert answers(result, "c2[desc ->> {Y}]")

    def test_explain_names_adornments_and_demand(self, chain):
        engine = DemandEngine(chain, desc_rules(), "c2[desc ->> {Y}]")
        engine.run()
        text = engine.explain()
        assert "demand:" in text
        assert "rewritten (2)" in text
        assert "^bf" in text
        assert "adorn" in text
        assert "magic" in text


class TestStratifiedInteraction:
    def test_head_inclusion_desugars_and_stays_rewritable(self):
        # A head superset (paper (4.4)) hoists into a plain body
        # membership during normalisation, so the rule *is* guardable.
        db = Database()
        db.add_object("p1", classes=["person"], sets={"kids": ["c1"]})
        db.add_object("c1", classes=["person"], sets={"kids": ["g1"]})
        db.add_object("g1", classes=["person"])
        program = parse_program("""
            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[desc ->> {Y}] <- X[desc ->> {Z}], Z[kids ->> {Y}].
            X[copies ->> X..desc] <- X : person.
        """)
        query = "p1[copies ->> {Y}]"
        rewrite = rewrite_for_query(db, normalize_program(program),
                                    query_to_atoms(query))
        assert rewrite.rewritten
        full = Engine(db, program).run()
        got = DemandEngine(db, program, query).run()
        assert answers(got, query) == answers(full, query)

    def test_body_superset_source_forces_full_evaluation(self):
        db = Database()
        db.add_object("p1", classes=["person"], sets={"kids": ["c1"]})
        db.add_object("c1", classes=["person"])
        program = parse_program("""
            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[clan -> yes] <- X[kids ->> p1..desc].
        """)
        query = "X[clan -> F], p1[desc ->> {D}]"
        rewrite = rewrite_for_query(db, normalize_program(program),
                                    query_to_atoms(query))
        # `desc` feeds a body superset source: it must be complete, so
        # neither its rule nor the superset rule can be guarded.
        assert not rewrite.rewritten
        reasons = " / ".join(reason for _, reason in rewrite.fallbacks)
        assert "superset" in reasons
        full = Engine(db, program).run()
        got = DemandEngine(db, program, query).run()
        assert answers(got, query) == answers(full, query)


class TestMagicInvisibility:
    """Demand bookkeeping must never leak into answers (hidden tables)."""

    @pytest.fixture
    def leak_db(self):
        db = Database()
        db.add_object("p1", sets={"kids": ["c1"]})
        db.add_object("c1")
        return db

    LEAK_PROGRAM = """
        X[busy -> yes] <- X[kids ->> {K}].
        X[near ->> {Y}] <- X[kids ->> {Y}].
    """

    def test_variable_method_reads_do_not_see_magic_facts(self, leak_db):
        program = parse_program(self.LEAK_PROGRAM)
        # A scalar demand materialises *set*-kind magic facts; the
        # wildcard set read must not enumerate them.
        query = "p1[busy -> B], X[M ->> {S}]"
        full = answers(Engine(leak_db, program).run(), query)
        got = answers(DemandEngine(leak_db, program, query).run(), query)
        assert got == full
        assert all(not str(row).count(MAGIC_PREFIX) for row in got)

    def test_subject_probe_does_not_see_bb_magic_facts(self, leak_db):
        program = parse_program(self.LEAK_PROGRAM)
        # bb adornments store magic facts on *user* objects; the
        # bound-subject wildcard probe must skip them.
        query = "p1[busy -> yes], p1[M ->> {S}]"
        full = answers(Engine(leak_db, program).run(), query)
        got = answers(DemandEngine(leak_db, program, query).run(), query)
        assert got == full

    def test_interpreted_executor_hides_magic_facts_too(self, leak_db):
        program = parse_program(self.LEAK_PROGRAM)
        query = "p1[busy -> B], X[M ->> {S}]"
        full = answers(Engine(leak_db, program).run(), query)
        engine = DemandEngine(leak_db, program, query, interpreted=True)
        assert answers(engine.run(), query) == full

    def test_guards_still_match_their_magic_facts(self):
        # Explicitly named magic methods stay visible: the guards'
        # int semi-joins still find the magic facts they filter on.
        db = Database()
        db.add_object("p1", sets={"kids": ["c1"]})
        db.add_object("c1", sets={"kids": ["g1"]})
        db.add_object("g1")
        full = Engine(db, desc_rules()).run()
        got = DemandEngine(db, desc_rules(), "p1[desc ->> {Y}]").run()
        query = "p1[desc ->> {Y}]"
        assert answers(got, query) == answers(full, query)
        assert answers(got, query)  # non-empty: the guards did fire


class TestUniverseDependence:
    def test_vacuous_superset_query_forces_total_fallback(self):
        db = Database()
        db.add_object("p1", sets={"kids": ["c1"]})
        db.add_object("c1")
        program = parse_program("""
            X[desc ->> {Y}] <- X[kids ->> {Y}].
            X[desc ->> {Y}] <- X[desc ->> {Z}], Z[kids ->> {Y}].
        """)
        # `X[kids ->> c9..kids]` has an unbound subject over a (here
        # vacuous) source: it quantifies over the universe itself.
        query = "p1[desc ->> {D}], X[kids ->> c9..kids]"
        rewrite = rewrite_for_query(db, normalize_program(program),
                                    query_to_atoms(query))
        assert rewrite.total_fallback
        assert rewrite.dropped == 0
        full = Engine(db, program).run()
        got = DemandEngine(db, program, query).run()
        assert answers(got, query) == answers(full, query)

    def test_unbound_self_query_forces_total_fallback(self, chain):
        query = "c2[desc ->> {D}], X[self -> Y]"
        rewrite = rewrite_for_query(chain,
                                    normalize_program(desc_rules()),
                                    query_to_atoms(query))
        assert rewrite.total_fallback
        full = Engine(chain, desc_rules()).run()
        got = DemandEngine(chain, desc_rules(), query).run()
        assert answers(got, query) == answers(full, query)

    def test_bound_superset_keeps_the_rewrite(self, chain):
        # All superset variables grounded by data atoms: no universe
        # quantification, demand stays on.
        query = "c2[desc ->> {D}], c2[kids ->> c2..kids]"
        rewrite = rewrite_for_query(chain,
                                    normalize_program(desc_rules()),
                                    query_to_atoms(query))
        assert not rewrite.total_fallback
        assert rewrite.rewritten
