"""CLI tests: programs, queries, snapshots, EXPLAIN, errors."""

import io

import pytest

from repro.cli import run

PROGRAM = """
    p1 : employee. p1[age -> 30]. p1[worksFor -> cs1].
    p2 : employee. p2[age -> 70].
    X[senior -> yes] <- X : employee, X.age >= 65.
    X.boss[worksFor -> D] <- X : employee[worksFor -> D].
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "program.plog"
    path.write_text(PROGRAM)
    return path


def invoke(*argv):
    out = io.StringIO()
    code = run([str(a) for a in argv], out=out)
    return code, out.getvalue()


class TestEvaluation:
    def test_query_answers(self, program_file):
        code, output = invoke(program_file, "--query", "X[senior -> yes]")
        assert code == 0
        assert "X=p2" in output
        assert "X=p1" not in output

    def test_virtual_objects_render(self, program_file):
        code, output = invoke(program_file, "--query",
                              "p1.boss[worksFor -> D]")
        assert code == 0
        assert "D=cs1" in output

    def test_boolean_query_yes_no(self, program_file):
        code, output = invoke(program_file, "--query", "p1 : employee",
                              "--query", "p1 : manager")
        assert code == 0
        assert "yes" in output
        assert "no" in output

    def test_stats(self, program_file):
        code, output = invoke(program_file, "--stats")
        assert code == 0
        assert "stats derived:" in output

    def test_naive_flag(self, program_file):
        code, _ = invoke(program_file, "--naive",
                         "--query", "X[senior -> yes]")
        assert code == 0


class TestSnapshots:
    def test_dump_and_reload(self, program_file, tmp_path):
        snapshot = tmp_path / "db.json"
        code, output = invoke(program_file, "--dump", snapshot)
        assert code == 0
        assert snapshot.exists()
        code, output = invoke("--db", snapshot,
                              "--query", "X[senior -> yes]")
        assert code == 0
        assert "X=p2" in output


EXPLAIN_PROGRAM = """
    car1 : automobile. car1[color -> red]. car1[cylinders -> 4].
    car2 : automobile. car2[color -> blue]. car2[cylinders -> 6].
    p1 : employee. p1[vehicles ->> {car1}]. p1[vehicles ->> {car2}].
    p2 : employee. p2[vehicles ->> {car2}].
"""

#: The exact plan for the snapshot program: the planner starts from the
#: one-entry (color, red) index bucket, walks the member index back to
#: the owner (a merge join when the member column is batched -- the
#: ``(merge)`` access-path suffix), then checks the class; the kernel
#: column names the columnar kernel of each step -- the same labels the
#: rule-body plan below prints.  Pinned as a rendering snapshot.
EXPLAIN_SNAPSHOT = """\
plan: X : employee..vehicles[color -> red]
#  atom                   access path                  kernel                 est.rows  rows
-  ---------------------  ---------------------------  ---------------------  --------  ----
1  _V1[color -> red]      method+result index          int scalar mr-probe           1     1
2  X[vehicles ->> {_V1}]  method+member index (merge)  int set mm merge-join       1.5     1
3  X : employee           isa check                    int isa check               0.5     1
estimated 0.8 rows; 1 bindings
"""

#: The same conjunction as a rule body, from the engine's ``--explain``:
#: rule bodies run on the columnar executor, so int-mirror-served steps
#: carry ``int ...`` kernel labels (including the merge-join access
#: path of step 2), and the isa step on the int column is a semi-join
#: against the class's member surrogates.  The last line names the
#: head rung: the int batch writer.  Pinned as a rendering snapshot.
RED_OWNER_RULE = "X[redOwner -> yes] <- X : employee..vehicles[color -> red]."

COLUMNAR_EXPLAIN_SNAPSHOT = f"plan: {RED_OWNER_RULE}\n" + """\
#  atom                   access path                  kernel                 est.rows  rows
-  ---------------------  ---------------------------  ---------------------  --------  ----
1  _V1[color -> red]      method+result index          int scalar mr-probe           1     1
2  X[vehicles ->> {_V1}]  method+member index (merge)  int set mm merge-join       1.5     1
3  X : employee           isa check                    int isa check               0.5     1
estimated 0.8 rows; 1 bindings
head: int writer
"""


class TestExplain:
    @pytest.fixture
    def explain_program(self, tmp_path):
        path = tmp_path / "explain.plog"
        path.write_text(EXPLAIN_PROGRAM)
        return path

    def test_explain_snapshot(self, explain_program):
        code, output = invoke("explain",
                              "X : employee..vehicles[color -> red]",
                              "--program", explain_program)
        assert code == 0
        assert output == EXPLAIN_SNAPSHOT

    def test_explain_columnar_snapshot(self, explain_program, tmp_path):
        # The facts come from a snapshot, so the rule is planned against
        # their statistics (facts in the program would be derived by
        # the run itself, after planning).
        snapshot = tmp_path / "db.json"
        assert invoke(explain_program, "--dump", snapshot)[0] == 0
        rule = tmp_path / "rule.plog"
        rule.write_text(RED_OWNER_RULE)
        code, output = invoke(rule, "--db", snapshot, "--explain")
        assert code == 0
        assert output == COLUMNAR_EXPLAIN_SNAPSHOT

    def test_engine_explain_names_magic_guard_kernels(self, tmp_path):
        # Under demand evaluation the rewritten rule bodies carry magic
        # guard atoms; the columnar lowering serves them from the int
        # mirror ("int set iter" seeds, "int set contains" checks), and
        # the adorn column marks the guard rows.
        path = tmp_path / "rec.plog"
        path.write_text("""
            n0[next -> n1]. n1[next -> n2].
            X[reach ->> {Y}] <- X[next -> Y].
            X[reach ->> {Z}] <- X[reach ->> {Y}], Y[next -> Z].
        """)
        code, output = invoke(path, "--magic", "--explain",
                              "--query", "n0[reach ->> {Y}]")
        assert code == 0
        assert "magic" in output
        assert "int set iter" in output
        assert "int set contains" in output

    def test_explain_without_analyze(self, explain_program):
        code, output = invoke("explain",
                              "X : employee..vehicles[color -> red]",
                              "--program", explain_program, "--no-analyze")
        assert code == 0
        assert "est.rows" in output
        assert "bindings" not in output

    def test_explain_against_snapshot_db(self, explain_program, tmp_path):
        snapshot = tmp_path / "db.json"
        code, _ = invoke(explain_program, "--dump", snapshot)
        assert code == 0
        code, output = invoke("explain", "X : employee", "--db", snapshot)
        assert code == 0
        assert "class extent" in output
        assert "2 bindings" in output

    def test_explain_without_database(self):
        code, output = invoke("explain", "X : employee")
        assert code == 0
        assert "0 bindings" in output

    def test_explain_bad_query(self, explain_program):
        code, output = invoke("explain", "p1[", "--program", explain_program)
        assert code == 1
        assert "error:" in output

    def test_engine_explain_flag(self, program_file):
        code, output = invoke(program_file, "--explain")
        assert code == 0
        assert "plan:" in output
        assert "access path" in output


class TestErrors:
    def test_no_input(self):
        code, output = invoke()
        assert code == 2
        assert "need a program" in output

    def test_syntax_error_reported(self, tmp_path):
        bad = tmp_path / "bad.plog"
        bad.write_text("p1[a -> .")
        code, output = invoke(bad)
        assert code == 1
        assert "error:" in output

    def test_missing_file(self, tmp_path):
        code, output = invoke(tmp_path / "absent.plog")
        assert code == 1
        assert "error:" in output

    def test_bad_query(self, program_file):
        code, output = invoke(program_file, "--query", "p1[")
        assert code == 1
        assert "error:" in output


MAGIC_PROGRAM = """
    p1 : person. c1 : person. g1 : person.
    p1[kids ->> {c1}]. c1[kids ->> {g1}].
    X[desc ->> {Y}] <- X[kids ->> {Y}].
    X[desc ->> {Y}] <- X[desc ->> {Z}], Z[kids ->> {Y}].
    X[busy -> yes] <- X[kids ->> {K}].
    X[idle -> yes] <- X : person, not X[busy -> yes].
"""

#: Demand section + plan for the magic snapshot program: the two `desc`
#: rules are rewritten for the bf adornment (subject bound), while the
#: negation rule, the predicate it reads, and that predicate's
#: dependencies fall back to full evaluation with recorded reasons.
MAGIC_EXPLAIN_SNAPSHOT = """\
demand:
  demanded: set:desc^bf
  seeds (1):
    "__demand__"["magic$set$desc$bf" ->> {p1}].
  rewritten (2):
    [bf] X[desc ->> {Y}] <- X[kids ->> {Y}].
    [bf] X[desc ->> {Y}] <- X[desc ->> {Z}], Z[kids ->> {Y}].
  full evaluation (7):
    p1 : person.  -- head declares class membership
    c1 : person.  -- head declares class membership
    g1 : person.  -- head declares class membership
    p1[kids ->> {c1}].  -- dependency of fully-evaluated scalar:busy
    c1[kids ->> {g1}].  -- dependency of fully-evaluated scalar:busy
    X[busy -> yes] <- X[kids ->> {K}].  -- read under negation or a superset source
    X[idle -> yes] <- X : person, not X[busy -> yes].  -- negation in body

plan: p1[desc ->> {Y}], g1[idle -> F]
#  atom              access path     kernel          est.rows  rows
-  ----------------  --------------  --------------  --------  ----
1  g1[idle -> F]     primary lookup  int scalar get         1     1
2  p1[desc ->> {Y}]  primary lookup  int set iter           2     2
estimated 2 rows; 2 bindings
"""


class TestMagic:
    @pytest.fixture
    def magic_program(self, tmp_path):
        path = tmp_path / "magic.plog"
        path.write_text(MAGIC_PROGRAM)
        return path

    def test_magic_query_answers_match_full(self, magic_program):
        code, full = invoke(magic_program, "--query", "p1[desc ->> {Y}]")
        code2, magic = invoke(magic_program, "--magic",
                              "--query", "p1[desc ->> {Y}]")
        assert code == code2 == 0
        assert magic == full
        assert "Y=c1" in magic and "Y=g1" in magic

    def test_magic_explain_snapshot(self, magic_program):
        code, output = invoke("explain", "p1[desc ->> {Y}], g1[idle -> F]",
                              "--program", magic_program, "--magic")
        assert code == 0
        assert output == MAGIC_EXPLAIN_SNAPSHOT

    def test_magic_stats_count_seeds_and_rewrites(self, magic_program):
        code, output = invoke(magic_program, "--magic", "--stats",
                              "--query", "p1[desc ->> {Y}]")
        assert code == 0
        assert "stats magic-seeds: 1" in output
        assert "stats rules-rewritten: 2" in output

    def test_magic_explain_flag_shows_adornments(self, magic_program):
        code, output = invoke(magic_program, "--magic", "--explain",
                              "--query", "p1[desc ->> {Y}]")
        assert code == 0
        assert "demand:" in output
        assert "adorn" in output
        assert "magic" in output

    def test_magic_requires_program_and_query(self, magic_program,
                                              tmp_path):
        code, output = invoke(magic_program, "--magic")
        assert code == 2
        assert "--magic" in output
        snapshot = tmp_path / "db.json"
        code, _ = invoke(magic_program, "--dump", snapshot)
        assert code == 0
        code, output = invoke("--db", snapshot, "--magic",
                              "--query", "p1[desc ->> {Y}]")
        assert code == 2

    def test_magic_dump_is_rejected(self, magic_program, tmp_path):
        code, output = invoke(magic_program, "--magic",
                              "--query", "p1[desc ->> {Y}]",
                              "--dump", tmp_path / "out.json")
        assert code == 2
        assert "full fixpoint" in output

    def test_explain_subcommand_magic_needs_program(self):
        code, output = invoke("explain", "X : person", "--magic")
        assert code == 2
        assert "--program" in output


class TestBudgetFlags:
    def test_max_derived_exceeded_exits_2(self, program_file):
        code, output = invoke(program_file, "--max-derived", "1",
                              "--query", "X[senior -> yes]")
        assert code == 2
        assert output.startswith("error:")
        assert "max_derived" in output
        assert len(output.strip().splitlines()) == 1

    def test_timeout_exceeded_exits_2(self, program_file):
        code, output = invoke(program_file, "--timeout-ms", "0",
                              "--query", "X[senior -> yes]")
        assert code == 2
        assert output.startswith("error:")
        assert "0ms" in output
        assert len(output.strip().splitlines()) == 1

    def test_roomy_budget_answers_normally(self, program_file):
        code, output = invoke(program_file, "--timeout-ms", "600000",
                              "--max-derived", "1000000",
                              "--query", "X[senior -> yes]")
        assert code == 0
        assert "X=p2" in output

    def test_magic_run_honours_budget(self, program_file):
        code, output = invoke(program_file, "--magic",
                              "--max-derived", "1",
                              "--query", "X[senior -> yes]")
        assert code == 2
        assert output.startswith("error:")
        assert "max_derived" in output

    def test_explain_subcommand_honours_budget(self, program_file):
        code, output = invoke("explain", "X[senior -> yes]",
                              "--program", program_file,
                              "--max-derived", "1")
        assert code == 2
        assert output.startswith("error:")
        assert "max_derived" in output

    def test_explain_subcommand_roomy_budget_plans(self, program_file):
        code, output = invoke("explain", "X[senior -> yes]",
                              "--program", program_file,
                              "--timeout-ms", "600000")
        assert code == 0
        assert "plan:" in output


class TestServe:
    def test_serve_requires_input(self):
        code, output = invoke("serve")
        assert code == 2
        assert "error:" in output

    def test_serve_missing_file(self, tmp_path):
        code, output = invoke("serve", tmp_path / "absent.plog")
        assert code == 1
        assert output.startswith("error:")

    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(["p.plog"])
        assert not hasattr(args, "executor")
        assert args.port == 7407
        assert args.max_inflight == 8
        assert args.max_queue == 32
        assert args.drain_ms == 5_000.0
        assert not args.no_magic

    def test_serve_answers_queries_then_drains(self, program_file):
        # The serve loop blocks; drive it from a thread and stop it
        # with the wire-level shutdown request.
        import asyncio
        import re
        import threading
        import time

        from repro.server import Client

        out = io.StringIO()
        result = {}

        def serving():
            result["code"] = run(["serve", str(program_file),
                                  "--port", "0"], out=out)

        thread = threading.Thread(target=serving)
        thread.start()
        try:
            deadline = time.time() + 10
            match = None
            while match is None and time.time() < deadline:
                match = re.search(r"serving on ([\d.]+):(\d+)",
                                  out.getvalue())
                time.sleep(0.01)
            assert match is not None, out.getvalue()
            host, port = match.group(1), int(match.group(2))

            async def drive():
                async with Client(host, port) as client:
                    res = await client.query("X[senior -> yes]", ["X"])
                    assert [a["X"] for a in res["answers"]] == ["p2"]
                    await client.shutdown()

            asyncio.run(drive())
        finally:
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["code"] == 0
        assert "drained, bye" in out.getvalue()


class TestDurabilityCommands:
    def seed_dir(self, tmp_path, program_file):
        data_dir = tmp_path / "data"
        code, output = invoke("snapshot", data_dir, program_file)
        assert code == 0, output
        return data_dir

    def test_snapshot_seeds_and_reports(self, program_file, tmp_path):
        data_dir = tmp_path / "data"
        code, output = invoke("snapshot", data_dir, program_file)
        assert code == 0
        assert "snapshot " in output and "@ cursor" in output
        assert list(data_dir.glob("snapshot-*.json"))

    def test_snapshot_compacts_existing_state(self, program_file,
                                              tmp_path):
        data_dir = self.seed_dir(tmp_path, program_file)
        code, output = invoke("snapshot", data_dir)
        assert code == 0
        assert "@ cursor" in output

    def test_recover_reports_clean_directory(self, program_file,
                                             tmp_path):
        data_dir = self.seed_dir(tmp_path, program_file)
        code, output = invoke("recover", data_dir)
        assert code == 0
        assert f"recovered {data_dir}" in output
        assert "entries replayed: 0" in output
        assert "tail truncated: 0 bytes" in output

    def test_recover_verify_is_dry_run(self, program_file, tmp_path):
        data_dir = self.seed_dir(tmp_path, program_file)
        wal = sorted(data_dir.glob("wal-*.log"))[-1]
        with open(wal, "ab") as handle:
            handle.write(b"\xde\xad\xbe\xef")
        size = wal.stat().st_size
        code, output = invoke("recover", data_dir, "--verify")
        assert code == 0
        assert "verified (dry run)" in output
        assert "tail truncated: 4 bytes" in output
        assert wal.stat().st_size == size  # untouched
        code, output = invoke("recover", data_dir)
        assert code == 0
        assert "tail truncated: 4 bytes" in output
        assert wal.stat().st_size == size - 4  # now trimmed

    def test_recover_dump_writes_database(self, program_file, tmp_path):
        data_dir = self.seed_dir(tmp_path, program_file)
        dump = tmp_path / "out.json"
        code, output = invoke("recover", data_dir, "--dump", dump)
        assert code == 0
        assert "dumped recovered database" in output
        from repro.oodb import serialize
        db = serialize.loads(dump.read_text())
        assert db.scalars.items()

    def test_recover_unrecoverable_exits_2(self, program_file, tmp_path):
        data_dir = self.seed_dir(tmp_path, program_file)
        for path in data_dir.glob("snapshot-*.json"):
            path.write_text("{broken")
        for path in sorted(data_dir.glob("wal-*.log")):
            path.unlink()
        # Fabricate a WAL that does not reach back to cursor 0.
        from repro.oodb.serialize import FORMAT_VERSION
        from repro.oodb.wal import frame, segment_name
        orphan = data_dir / segment_name(50)
        orphan.write_bytes(frame({"wal": FORMAT_VERSION, "cursor": 50}))
        code, output = invoke("recover", data_dir)
        assert code == 2
        assert output.startswith("error:")

    def test_serve_accepts_data_dir_flags(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args(
            ["--data-dir", "d", "--fsync", "always",
             "--checkpoint-bytes", "1024",
             "--checkpoint-interval-ms", "50"])
        assert str(args.data_dir) == "d"
        assert args.fsync == "always"
        assert args.checkpoint_bytes == 1024
        assert args.checkpoint_interval_ms == 50.0
