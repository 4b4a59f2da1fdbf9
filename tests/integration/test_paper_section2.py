"""Experiments E2.1-E2.3, E2.5: the two-dimensional path expressions.

(2.1)/(2.2): one PathLog reference carries both dimensions; equals the
XSQL conjunction (1.4).  (2.3): a nested path inside a filter (the
boss's city).  E2.5: the Section 2 manager query as a single reference
vs. the three-clause O2SQL form.
"""

from repro.datasets import CompanyConfig, build_company
from repro.frontends import run_o2sql, run_xsql
from repro.query import Query

E21 = ("X : employee[age -> 30; city -> newYork]"
       "..vehicles : automobile[cylinders -> 4].color[Z]")

E22_XSQL = """
    SELECT Z
    FROM employee X, automobile Y
    WHERE X[age -> 30; city -> newYork].vehicles[cylinders -> 4][Y].color[Z]
"""

E23 = "X : employee[city -> X.boss.city]..vehicles : automobile.color[Z]"

E25_PATHLOG = ("X : manager..vehicles[color -> red]"
               ".producedBy[city -> detroit; president -> X]")

E25_O2SQL = """
    SELECT X
    FROM X IN manager
    FROM Y IN X.vehicles
    WHERE Y.color = red
      AND Y.producedBy.city = detroit
      AND Y.producedBy.president = X
"""


class TestE21:
    def test_expected_answer(self, company_db):
        rows = Query(company_db).all(E21)
        assert {(r.value("X"), r.value("Z")) for r in rows} == {
            ("mary", "red"),
        }

    def test_one_reference_equals_xsql_conjunction(self, company_db):
        single = {r.value("Z") for r in Query(company_db).all(E21)}
        conjunction = {r.value("Z")
                       for r in run_xsql(company_db, E22_XSQL)}
        assert single == conjunction == {"red"}
        # The same two dimensions against their 1-D conjunction, over
        # a generated company.
        generated = Query(build_company(CompanyConfig(employees=200,
                                                      seed=21)))
        two_dim = generated.all(
            "X : employee[age -> A; city -> C]"
            "..vehicles : automobile[cylinders -> 4].color[Z]")
        one_dim = generated.all(
            "X : employee, X.age[A], X.city[C], X..vehicles[Y], "
            "Y : automobile, Y.cylinders[4], Y.color[Z]",
            variables=["X", "A", "C", "Z"])
        assert two_dim and two_dim == one_dim


class TestE23:
    def test_nested_path_in_filter(self, company_db):
        # mary lives in newYork, boss peter lives in newYork -> matches;
        # john lives in boston, boss peter in newYork -> excluded.
        rows = Query(company_db).all(E23, variables=["X"])
        assert {r.value("X") for r in rows} == {"mary"}

    def test_against_explicit_join(self, company_db):
        explicit = Query(company_db).all(
            "X : employee[city -> C], X.boss[city -> C]",
            variables=["X"],
        )
        nested = Query(company_db).all(
            "X : employee[city -> X.boss.city]", variables=["X"])
        assert {r.value("X") for r in explicit} == \
            {r.value("X") for r in nested}


class TestE25:
    def test_expected_manager(self, company_db):
        rows = Query(company_db).all(E25_PATHLOG, variables=["X"])
        assert {r.value("X") for r in rows} == {"peter"}

    def test_single_reference_equals_o2sql(self, company_db):
        pathlog = {r.value("X")
                   for r in Query(company_db).all(E25_PATHLOG,
                                                  variables=["X"])}
        o2sql = {r.value("X") for r in run_o2sql(company_db, E25_O2SQL)}
        assert pathlog == o2sql == {"peter"}
        generated = build_company(CompanyConfig(employees=100, seed=31))
        pathlog = {r.value("X")
                   for r in Query(generated).all(E25_PATHLOG,
                                                 variables=["X"])}
        o2sql = {r.value("X") for r in run_o2sql(generated, E25_O2SQL)}
        assert pathlog == o2sql
        assert "p0" in pathlog  # the dataset's golden anchor

    def test_presidency_condition_matters(self, company_db):
        # john has a blue car from ford/boston: no match even though he
        # presides over ford.
        rows = Query(company_db).all(E25_PATHLOG, variables=["X"])
        assert "john" not in {r.value("X") for r in rows}
