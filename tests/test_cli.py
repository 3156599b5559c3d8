import json
import math
import os
import random
from decimal import getcontext
from fractions import Fraction
from pathlib import Path

import pytest

from cuboidsearch import asymptotics, cli, exact_arith, search
from cuboidsearch.cuboid_eqs import PQPair, build_rpq
from cuboidsearch.exact_arith import QuadRational, sturm_count
from oracles import build_qpq, fraction_approx_str

GOLDEN_DIR = Path(__file__).parent / "golden"

# The pairs of golden/roots_seeded.txt: 18 drawn with random.Random(5917),
# the last two of them with 5 | q, then q = 118p at p = 1 and a pair just
# above q = 59p.
SEEDED_ROOTS_PAIRS = (
    (29, 2334), (35, 3951), (31, 2165), (8, 653), (3, 323), (21, 1342),
    (11, 1247), (37, 2426), (19, 1475), (40, 2893), (23, 1949), (27, 2350),
    (7, 807), (2, 169), (39, 2734), (4, 455), (1, 100), (29, 2110), (1, 118),
    (49, 2892),
)

# The calls of golden/verify_seeded.txt: 18 drawn with random.Random(2117),
# alternately p < q and q < p, with t in pairs below, inside and above the
# range max(p^2, pq, q^2) < t < r(q) of the search inequality
# (p^2 + t)(pq + t) > 2 t^2 (just above the lower end when that range is
# empty); then (23, 10) at p^2 and at the last t and first t past r(q); then
# a common factor and t = 0, which are refused.
SEEDED_VERIFY_CALLS = (
    (13, 31, 457), (23, 10, 432), (11, 18, 367), (34, 27, 2333),
    (42, 53, 7253), (27, 7, 1155), (26, 27, 720), (28, 15, 677),
    (14, 33, 1090), (49, 10, 2952), (5, 17, 295), (9, 8, 210),
    (20, 51, 1071), (32, 23, 139), (27, 41, 1787), (28, 25, 1670),
    (45, 46, 5403), (59, 28, 9291), (23, 10, 529), (23, 10, 894),
    (23, 10, 895), (2, 4, 5), (1, 2, 0),
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSearchCommand:
    def test_small_clean_run(self, tmp_path, capsys):
        out = tmp_path / "hits.jsonl"
        code, _, err = run_cli(
            capsys,
            "search",
            "--p-max", "3",
            "--out", str(out),
            "--threads", "1",
        )
        assert code == cli.EXIT_OK
        progress = [l for l in err.splitlines() if l.startswith("p=")]
        assert len(progress) == 3
        assert progress[0].startswith("p=1 pairs=")
        for line in progress:
            parts = dict(kv.split("=") for kv in line.split())
            assert set(parts) == {
                "p", "pairs", "nonempty", "obstructed", "evaluated", "hits"
            }
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["summary"] is True
        assert summary["hits"] == 0

    def test_bad_range(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "search", "--p-min", "5", "--p-max", "3",
            "--out", str(tmp_path / "x.jsonl"),
        )
        assert code == cli.EXIT_BAD_FLAGS
        assert "error" in err

    @pytest.mark.parametrize("out, ckpt, link", [
        ("same", "same", None),
        ("c.tmp", "c", None),
        ("out.jsonl", "c.ckpt", "c.ckpt"),
        ("out.jsonl", "c.ckpt", "c.ckpt.tmp"),
    ], ids=["same-same", "c.tmp-c", "symlink-to-checkpoint", "symlink-to-tmp"])
    def test_output_clashing_with_checkpoint_refused(
        self, tmp_path, capsys, out, ckpt, link
    ):
        # the checkpoint is written to ckpt + ".tmp", then renamed to ckpt;
        # with `link`, out is a symlink to that name, made before the run
        if link:
            (tmp_path / out).symlink_to(link)
        code, stdout, err = run_cli(
            capsys,
            "search", "--p-max", "5", "--threads", "1",
            "--out", str(tmp_path / out), "--checkpoint", str(tmp_path / ckpt),
        )
        assert code == cli.EXIT_BAD_FLAGS
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == ([tmp_path / out] if link else [])

    @pytest.mark.parametrize("link", ["symlink", "hardlink"])
    def test_output_linked_to_existing_checkpoint_refused(
        self, tmp_path, capsys, link
    ):
        # the checkpoint of an interrupted run is there; the output is the
        # same file under another name, and opening it would truncate it
        ckpt = tmp_path / "c.ckpt"
        ckpt.write_text("version=5\n")
        out = tmp_path / "out.jsonl"
        if link == "symlink":
            out.symlink_to(ckpt)
        else:
            os.link(ckpt, out)
        code, stdout, err = run_cli(
            capsys,
            "search", "--p-max", "5", "--threads", "1",
            "--out", str(out), "--checkpoint", str(ckpt),
        )
        assert code == cli.EXIT_BAD_FLAGS
        assert stdout == "" and err.startswith("error: ") and err.count("\n") == 1
        assert ckpt.read_text() == "version=5\n"

    def test_bad_mode_rejected_by_parser(self, tmp_path, capsys):
        # one pipeline: --mode is gone, so even its old values are refused
        for mode in ("turbo", "scan", "divisor"):
            code, _, _ = run_cli(
                capsys,
                "search", "--p-max", "3", "--mode", mode,
                "--out", str(tmp_path / "x.jsonl"),
            )
            assert code == cli.EXIT_BAD_FLAGS

    def test_resume_mismatch(self, tmp_path, capsys):
        out = str(tmp_path / "r.jsonl")
        ckpt = str(tmp_path / "r.ckpt")
        code, _, _ = run_cli(
            capsys,
            "search", "--p-max", "3", "--out", out, "--checkpoint", ckpt,
            "--threads", "1",
        )
        assert code == cli.EXIT_OK
        code, _, err = run_cli(
            capsys,
            "search", "--p-max", "4", "--out", out, "--checkpoint", ckpt,
            "--threads", "1",
        )
        assert code == cli.EXIT_RESUME_MISMATCH
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "p 1..3" in err and "p 1..4" in err

    def test_unwritable_output(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "search", "--p-max", "2",
            "--out", str(tmp_path / "missing_dir" / "x.jsonl"),
        )
        assert code == cli.EXIT_IO
        assert "error" in err

    def test_sieve_moduli_flag_removed(self, tmp_path, capsys):
        # --faithful, the literal t range, is gone like --sieve-moduli
        for flag in (["--sieve-moduli", ""], ["--sieve-moduli", "64,81"],
                     ["--faithful"]):
            code, _, _ = run_cli(
                capsys,
                "search", "--p-max", "2", "--out", str(tmp_path / "n.jsonl"),
                *flag, "--threads", "1",
            )
            assert code == cli.EXIT_BAD_FLAGS

    def test_damaged_checkpoint(self, tmp_path, capsys):
        out = str(tmp_path / "d.jsonl")
        ckpt = tmp_path / "d.ckpt"
        argv = ("search", "--p-max", "3", "--out", out, "--checkpoint", str(ckpt),
                "--threads", "1")
        assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
        ckpt.write_text(
            "".join(l for l in ckpt.read_text().splitlines(keepends=True)
                    if not l.startswith("last_completed_p="))
        )
        code, _, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_RESUME_MISMATCH
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "last_completed_p" in err

    @pytest.mark.parametrize("last", [0, 41, 400])
    def test_last_completed_p_outside_range(self, tmp_path, capsys, last):
        # a last_completed_p outside the range would skip or repeat p
        out = str(tmp_path / "o.jsonl")
        ckpt = tmp_path / "o.ckpt"
        config = search.SearchConfig(1, 40, 1, str(ckpt), out)
        with pytest.raises(KeyboardInterrupt):
            search.run_search(config, abort_after_p=10)
        ckpt.write_text(ckpt.read_text().replace(
            "last_completed_p=10\n", f"last_completed_p={last}\n"
        ))
        code, _, err = run_cli(
            capsys, "search", "--p-max", "40", "--out", out,
            "--checkpoint", str(ckpt), "--threads", "1",
        )
        assert code == cli.EXIT_RESUME_MISMATCH
        assert err.count("\n") == 1
        assert err.startswith("error: ") and f"last_completed_p={last} " in err

    def test_pairs_examined_checked_on_resume(self, tmp_path, capsys):
        # pairs_examined has a closed form, so an edited count is refused
        out = str(tmp_path / "e.jsonl")
        ckpt = tmp_path / "e.ckpt"
        config = search.SearchConfig(1, 40, 1, str(ckpt), out)
        with pytest.raises(KeyboardInterrupt):
            search.run_search(config, abort_after_p=10)
        text = ckpt.read_text()
        assert "pairs_examined=1886\n" in text
        ckpt.write_text(text.replace("pairs_examined=1886\n", "pairs_examined=5\n"))
        code, _, err = run_cli(
            capsys, "search", "--p-max", "40", "--out", out,
            "--checkpoint", str(ckpt), "--threads", "1",
        )
        assert code == cli.EXIT_RESUME_MISMATCH
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "pairs_examined=5," in err

    def test_torn_output_line(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        argv = ("search", "--p-max", "3", "--out", str(out), "--checkpoint",
                str(tmp_path / "t.ckpt"), "--threads", "1")
        assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
        clean = out.read_bytes()
        # a torn final line is dropped and the run completes byte-identically
        out.write_bytes(clean[:-9])
        assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
        assert out.read_bytes() == clean
        # an unparsable line before the last one is refused
        out.write_bytes(b'{"p":1,"q"\n' + clean)
        code, _, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_RESUME_MISMATCH
        assert err.count("\n") == 1 and "line 1" in err

    @pytest.mark.parametrize("checkpoint", [False, True])
    def test_interrupt(self, tmp_path, capsys, monkeypatch, checkpoint):
        def interrupted(config, progress=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "run_search", interrupted)
        argv = ["search", "--p-max", "3", "--out", str(tmp_path / "i.jsonl")]
        if checkpoint:
            argv += ["--checkpoint", str(tmp_path / "i.ckpt")]
        code, _, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_INTERRUPTED == 130
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("interrupted")
        assert ("rerun the same command to resume" in err) == checkpoint


class TestRootsCommand:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--p", "1", "--q", "59")
        assert code == cli.EXIT_OK
        assert "disjoint: True" in out
        assert out.count("PASS") == 5
        assert "approx" in out
        assert "T4" in out and "sqrt(2)" in out

    def test_q_too_small(self, capsys):
        code, _, err = run_cli(capsys, "roots", "--p", "1", "--q", "58")
        assert code == cli.EXIT_BAD_FLAGS
        assert "59" in err

    def test_common_factor(self, capsys):
        code, _, err = run_cli(capsys, "roots", "--p", "2", "--q", "118")
        assert code == cli.EXIT_BAD_FLAGS
        assert "coprime" in err

    def test_sturm_totals_printed(self, capsys):
        _, out, _ = run_cli(capsys, "roots", "--p", "1", "--q", "59")
        totals = [l for l in out.splitlines() if l.startswith("real roots")]
        assert len(totals) == 1
        assert ": 3; " in totals[0]
        assert totals[0].rstrip().endswith("6")

    @pytest.mark.parametrize("p, q", [(1, 59), (7, 500), (13, 1000), (50, 5901)])
    def test_golden_stdout(self, capsys, p, q):
        # the full output, byte for byte: certificate signs, Sturm counts,
        # real-root totals and the decimal renderings
        golden = (GOLDEN_DIR / f"roots_p{p}_q{q}.txt").read_text()
        code, out, _ = run_cli(capsys, "roots", "--p", str(p), "--q", str(q))
        assert code == cli.EXIT_OK
        assert out == golden

    def test_seeded_golden_stdout(self, capsys):
        # 20 pairs with p <= 50 and 59p <= q <= 118p, six of them with 5 | q,
        # where the endpoint fractions reduce; the stdouts in order
        out = []
        for p, q in SEEDED_ROOTS_PAIRS:
            code, text, _ = run_cli(capsys, "roots", "--p", str(p), "--q", str(q))
            assert code == cli.EXIT_OK
            out.append(text)
        assert "".join(out) == (GOLDEN_DIR / "roots_seeded.txt").read_text()

    def test_decimal_context_untouched(self, capsys):
        before = getcontext().prec
        getcontext().prec = 11
        try:
            run_cli(capsys, "roots", "--p", "1", "--q", "59")
            assert getcontext().prec == 11
        finally:
            getcontext().prec = before

    def test_one_sturm_sequence_per_call(self, capsys, monkeypatch):
        built = []
        original = exact_arith.sturm_sequence

        def counting(P):
            built.append(P)
            return original(P)

        for module in (exact_arith, asymptotics, cli):
            if hasattr(module, "sturm_sequence"):
                monkeypatch.setattr(module, "sturm_sequence", counting)
        code, _, _ = run_cli(capsys, "roots", "--p", "7", "--q", "500")
        assert code == cli.EXIT_OK
        assert len(built) == 1

    def test_the_one_sequence_is_of_r(self, capsys, monkeypatch):
        built = []
        original = exact_arith.sturm_sequence

        def recording(P):
            built.append(P)
            return original(P)

        monkeypatch.setattr(cli, "sturm_sequence", recording)
        code, _, _ = run_cli(capsys, "roots", "--p", "7", "--q", "500")
        assert code == cli.EXIT_OK
        assert built == [build_rpq(PQPair(7, 500))]
        assert len(built[0]) - 1 == 5

    def test_totals_equal_sturm_counts_on_q(self, capsys):
        # the printed totals come from R on (0, B^2), doubled by evenness;
        # here they are recounted on Q itself over (0, B) and (-B, B)
        rng = random.Random(4242)
        checked = 0
        while checked < 50:
            p = rng.randint(1, 50)
            q = rng.randint(59 * p, 118 * p)
            if math.gcd(p, q) != 1:
                continue
            code, out, _ = run_cli(capsys, "roots", "--p", str(p), "--q", str(q))
            assert code == cli.EXIT_OK
            line = next(l for l in out.splitlines() if l.startswith("real roots"))
            t3_hi = asymptotics.asymptotic_intervals(PQPair(p, q))[2].hi.to_fraction()
            B = math.ceil(t3_hi) + 1
            qpoly = build_qpq(PQPair(p, q))
            pos, total = sturm_count(qpoly, 0, B), sturm_count(qpoly, -B, B)
            assert line == f"real roots in (0, {B}): {pos}; in (-{B}, {B}): {total}"
            checked += 1


class TestApproxStr:
    def test_matches_fraction_oracle_on_endpoints(self):
        # every endpoint of 200 seeded pairs in the benchmark's audit range
        rng = random.Random(1202)
        checked = 0
        while checked < 200:
            p = rng.randint(1, 50)
            q = rng.randint(59 * p, 118 * p)
            if math.gcd(p, q) != 1:
                continue
            for iv in asymptotics.asymptotic_intervals(PQPair(p, q)):
                for x in (iv.lo, iv.hi):
                    assert cli.approx_str(x) == fraction_approx_str(x)
            checked += 1

    @pytest.mark.parametrize("a, b, text", [
        (0, 0, "approx 0"),
        (169, 0, "approx 169"),
        (Fraction(-31603, 200), 0, "approx -158.015"),
        (3, -2, "approx 0.171572875253809902396622551581"),
        (0, 1, "approx 1.41421356237309504880168872421"),
        (0, Fraction(-7, 3), "approx -3.29983164553722178053727368982"),
    ])
    def test_hand_cases(self, a, b, text):
        x = QuadRational.of(a, b)
        assert cli.approx_str(x) == fraction_approx_str(x) == text


class TestNewtonCommand:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "newton")
        assert code == cli.EXIT_OK
        assert "golden-data match: True" in out
        assert "(0, 10)" in out
        assert "exponent 2" in out


class TestVerifyCommand:
    def test_non_root(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "1", "--q", "2", "--t", "5")
        assert code == cli.EXIT_OK
        assert "not a root" in out
        assert "not a perfect cuboid" in out

    def test_discarded_factor_root(self, capsys):
        # t = pq zeroes the quadratic factor, which carries no cuboid
        code, out, _ = run_cli(capsys, "verify", "--p", "1", "--q", "2", "--t", "2")
        assert code == cli.EXIT_OK
        assert "not a perfect cuboid" in out

    def test_seeded_golden(self, capsys):
        # stdout and exit code of each call, after a line naming it
        out = []
        for p, q, t in SEEDED_VERIFY_CALLS:
            code, text, _ = run_cli(
                capsys, "verify", "--p", str(p), "--q", str(q), "--t", str(t)
            )
            out.append(f"$ verify --p {p} --q {q} --t {t}\n{text}exit {code}\n")
        assert "".join(out) == (GOLDEN_DIR / "verify_seeded.txt").read_text()

    def test_bad_flags(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--p", "2", "--q", "4", "--t", "30")
        assert code == cli.EXIT_BAD_FLAGS
        code, _, _ = run_cli(capsys, "verify", "--p", "1", "--q", "2", "--t", "0")
        assert code == cli.EXIT_BAD_FLAGS


class TestIdentityCheckCommand:
    def test_small(self, capsys):
        code, out, _ = run_cli(capsys, "identity-check", "--max-pq", "10")
        assert code == cli.EXIT_OK
        assert "identity holds for all 31 coprime pairs" in out

    def test_audit_bound(self, capsys):
        code, out, _ = run_cli(capsys, "identity-check", "--max-pq", "120")
        assert code == cli.EXIT_OK
        assert out == "identity holds for all 4385 coprime pairs with p < q <= 120\n"

    def test_bad_bound(self, capsys):
        code, _, _ = run_cli(capsys, "identity-check", "--max-pq", "1")
        assert code == cli.EXIT_BAD_FLAGS

    def test_fault_injection(self, capsys, monkeypatch):
        from cuboidsearch import cuboid_eqs

        real = cuboid_eqs.factorization_check

        def broken(p, q):
            if (p, q) == (2, 3):
                return False
            return real(p, q)

        monkeypatch.setattr(cli.cuboid_eqs, "factorization_check", broken)
        code, out, _ = run_cli(capsys, "identity-check", "--max-pq", "5")
        assert code == cli.EXIT_CHECK_FAILED
        assert "(p=2, q=3)" in out

    def test_altered_qpq_coefficient_fails(self, capsys, monkeypatch):
        from cuboidsearch import cuboid_eqs

        real = cuboid_eqs.qpq_coefficients

        def altered(p, q):
            c0, c2, c4, c6, c8 = real(p, q)
            return c0, c2, c4 + 1, c6, c8

        monkeypatch.setattr(cuboid_eqs, "qpq_coefficients", altered)
        code, out, _ = run_cli(capsys, "identity-check", "--max-pq", "5")
        assert code == cli.EXIT_CHECK_FAILED
        assert "(p=1, q=2)" in out


class TestParser:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == cli.EXIT_BAD_FLAGS

    def test_help_is_ok(self, capsys):
        assert cli.main(["--help"]) == cli.EXIT_OK

    def test_bad_flag_then_good_call(self, capsys):
        # the reused parser keeps no state from a refused call
        assert cli.main(["roots", "--p", "1", "--q", "59", "--bogus"]) == (
            cli.EXIT_BAD_FLAGS
        )
        code, out, _ = run_cli(capsys, "roots", "--p", "1", "--q", "59")
        assert code == cli.EXIT_OK
        assert out == (GOLDEN_DIR / "roots_p1_q59.txt").read_text()

    @pytest.mark.parametrize("argv", [
        [],
        ["bogus"],
        ["roots", "--p", "1", "--bogus", "2", "--q", "59"],
        ["roots", "--p-ma", "1", "--q", "59"],  # no prefix abbreviations
        ["roots", "--p", "1", "--q"],
        ["search", "--p-max", "--out", "x.jsonl"],
        ["search", "--p-max", "1", "--out", "--threads"],
        ["roots", "--p", "1", "--q", "x59"],
        ["roots", "--p=", "--q", "59"],
        ["roots", "--p", "1"],
        ["search", "--out", "x.jsonl"],
        ["newton", "extra"],
    ])
    def test_error_is_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_BAD_FLAGS
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["-h"], ["--help"]] + [
        [command, flag] for command in cli.COMMANDS for flag in ("-h", "--help")
    ])
    def test_help_names_every_command_and_flag(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_OK and err == ""
        for command, (help_line, flags, _) in cli.COMMANDS.items():
            assert f"{command}: {help_line}" in out
            for flag in flags:
                assert f"  {flag}  (" in out

    @pytest.mark.parametrize("argv, flag", [
        (["search", "--p-max", "3", "--out", "o.jsonl", "--checkpoint", ""], "--checkpoint"),
        (["search", "--p-max", "3", "--out", "o.jsonl", "--checkpoint="], "--checkpoint"),
        (["search", "--p-max", "3", "--out", ""], "--out"),
        (["search", "--p-max", "3", "--out="], "--out"),
        (["roots", "--p=", "--q", "59"], "--p"),
        (["verify", "--p", "1", "--q", "2", "--t", ""], "--t"),
    ])
    def test_empty_value_refused(self, tmp_path, capsys, monkeypatch, argv, flag):
        # an empty --checkpoint used to run with no checkpoint at all
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (cli.EXIT_BAD_FLAGS, "")
        assert err == f"error: {flag} needs a value\n"
        assert list(tmp_path.iterdir()) == []

    def test_equals_form(self):
        assert cli._parse(["search", "--p-max=40", "--out=o"]) == cli._parse(
            ["search", "--p-max", "40", "--out", "o"]
        )

    def test_repeated_flag_keeps_last(self):
        args = cli._parse(["search", "--p-max", "3", "--out", "o",
                           "--threads", "4", "--threads", "1"])
        assert args.threads == 1

    def test_negative_value_reaches_the_handler(self, capsys):
        assert cli._parse(["roots", "--p", "-5", "--q", "59"]).p == -5
        code, _, err = run_cli(capsys, "roots", "--p", "-5", "--q", "59")
        assert code == cli.EXIT_BAD_FLAGS and "positive" in err

    def test_readme_command_lines(self):
        # every line of README's CLI block, as the handlers read it
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        lines = [line.split()[1:] for line in block.splitlines()]
        threads = os.cpu_count() or 1
        expected = [
            dict(subcommand="search", p_min=1, p_max=100, threads=threads,
                 checkpoint="run.ckpt", out="cuboids.jsonl"),
            dict(subcommand="search", p_min=1, p_max=25, threads=8,
                 checkpoint=None, out="c.jsonl"),
            dict(subcommand="roots", p=1, q=59),
            dict(subcommand="newton"),
            dict(subcommand="verify", p=1, q=2, t=5),
            dict(subcommand="identity-check", max_pq=20),
        ]
        assert [vars(cli._parse(argv)) for argv in lines] == expected
