"""EngineLimits failure paths, on the columnar executor and the oracle.

Every limit must fail the same way whether the columnar executor or the
interpreted matcher runs the plans: a typed :class:`ResourceLimitError`
whose message names the ``EngineLimits`` field to raise, and an input
database left exactly as it was (the engine evaluates against a
pre-clone snapshot).
"""

import pytest

from repro.engine import Engine, EngineLimits
from repro.errors import PathLogError, ResourceLimitError
from repro.lang.parser import parse_program
from repro.oodb.database import Database

#: The production path, then the interpreted oracle.
MODES = [pytest.param(False, id="columnar"),
         pytest.param(True, id="interpreted")]

#: A 12-deep chain: the desc fixpoint needs ~12 semi-naive iterations.
CHAIN = "\n".join(
    f"c{i}[kids ->> {{c{i + 1}}}]." for i in range(12)
) + """
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X..desc[kids ->> {Y}].
"""

#: Unbounded virtual creation: every person's boss is a person.
RUNAWAY = """
    p1 : person.
    X.boss : person <- X : person.
"""


def evaluate(text, *, limits, interpreted):
    db = Database()
    before = db.data_version()
    engine = Engine(db, parse_program(text), limits=limits,
                    interpreted=interpreted)
    try:
        engine.run()
    finally:
        # Whatever happened, the input database was never touched.
        assert len(db) == 0
        assert db.data_version() == before


class TestMaxIterations:
    @pytest.mark.parametrize("interpreted", MODES)
    def test_typed_error_names_the_limit(self, interpreted):
        limits = EngineLimits(max_iterations=3)
        with pytest.raises(ResourceLimitError) as info:
            evaluate(CHAIN, limits=limits, interpreted=interpreted)
        assert "max_iterations" in str(info.value)
        assert "3" in str(info.value)
        assert isinstance(info.value, PathLogError)

    @pytest.mark.parametrize("interpreted", MODES)
    def test_roomy_limit_passes(self, interpreted):
        evaluate(CHAIN, limits=EngineLimits(max_iterations=100),
                 interpreted=interpreted)


class TestMaxUniverse:
    @pytest.mark.parametrize("interpreted", MODES)
    def test_typed_error_names_the_limit(self, interpreted):
        limits = EngineLimits(max_universe=10, max_virtual_depth=10_000)
        with pytest.raises(ResourceLimitError) as info:
            evaluate(RUNAWAY, limits=limits, interpreted=interpreted)
        assert "max_universe" in str(info.value)
        assert "10" in str(info.value)


class TestMaxVirtualDepth:
    @pytest.mark.parametrize("interpreted", MODES)
    def test_typed_error_names_the_limit(self, interpreted):
        limits = EngineLimits(max_virtual_depth=5)
        with pytest.raises(ResourceLimitError) as info:
            evaluate(RUNAWAY, limits=limits, interpreted=interpreted)
        assert "max_virtual_depth" in str(info.value)
        # The historical wording stays greppable.
        assert "nesting" in str(info.value)
