import errno
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import time
from decimal import getcontext
from fractions import Fraction
from pathlib import Path

import pytest

from cuboidsearch import asymptotics, cli, cuboid_eqs, search
from cuboidsearch.cuboid_eqs import PQPair
from cuboidsearch.exact_arith import QuadRational
from oracles import (
    build_qpq,
    fraction_approx_str,
    fraction_sturm_count,
    fraction_sturm_sequence,
    quad,
    to_fraction,
)

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

    def test_totals_line(self, tmp_path, capsys):
        # the last stderr line: the run's totals, as the summary line has
        # them, and the wall time of the search
        code, _, err = run_cli(
            capsys, "search", "--p-max", "40", "--threads", "1",
            "--out", str(tmp_path / "t.jsonl"),
        )
        assert code == cli.EXIT_OK
        assert err.endswith("\n")
        lines = err.splitlines()
        assert len(lines) == 41 and all(l.startswith("p=") for l in lines[:40])
        assert re.fullmatch(
            r"pairs=28908 nonempty=899 obstructed=899 evaluated=0 hits=0 "
            r"wall=\d+\.\d\ds",
            lines[-1],
        )

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

    @pytest.mark.parametrize("edit", [
        lambda text: text + "version=5\ngarbage line\n",
        lambda text: text.replace("p_max=40\n", "p_max=40\np_max=40\n"),
        lambda text: text.replace("p_min=1\np_max=40\n", "p_max=40\np_min=1\n"),
    ], ids=["extra", "duplicated", "reordered"])
    def test_checkpoint_with_a_line_out_of_place(self, tmp_path, capsys, edit):
        # every field reads, but the file is not what the search writes
        out = str(tmp_path / "x.jsonl")
        ckpt = tmp_path / "x.ckpt"
        config = search.SearchConfig(1, 40, 1, str(ckpt), out)
        with pytest.raises(KeyboardInterrupt):
            search.run_search(config, abort_after_p=26)
        ckpt.write_text(edit(ckpt.read_text()))
        code, _, err = run_cli(
            capsys, "search", "--p-max", "40", "--out", out,
            "--checkpoint", str(ckpt), "--threads", "1",
        )
        assert code == cli.EXIT_RESUME_MISMATCH
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "is damaged" in err

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

    def test_hit_count_checked_on_resume(self, tmp_path, capsys):
        # a checkpoint that counts a hit the output does not hold is refused
        out = str(tmp_path / "h.jsonl")
        ckpt = tmp_path / "h.ckpt"
        config = search.SearchConfig(1, 40, 1, str(ckpt), out)
        with pytest.raises(KeyboardInterrupt):
            search.run_search(config, abort_after_p=10)
        text = ckpt.read_text()
        assert "candidates_found=0\n" in text
        ckpt.write_text(text.replace("candidates_found=0\n", "candidates_found=1\n"))
        code, _, err = run_cli(
            capsys, "search", "--p-max", "40", "--out", out,
            "--checkpoint", str(ckpt), "--threads", "1",
        )
        assert code == cli.EXIT_RESUME_MISMATCH
        assert err == (
            "error: output holds 0 hits for p <= 10 but checkpoint recorded 1\n"
        )

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

    @pytest.mark.parametrize("tail, code", [
        ("[" * 100000, cli.EXIT_OK),
        ("[" * 100000 + "\n" + "[" * 100000, cli.EXIT_RESUME_MISMATCH),
    ], ids=["final-line", "inner-line"])
    def test_deeply_nested_output_line(self, tmp_path, capsys, tail, code):
        # json.loads raises RecursionError, not ValueError, on such a line;
        # it is torn like any unparsable line when last, refused otherwise
        clean = tmp_path / "clean.jsonl"
        argv = ("search", "--p-max", "10", "--threads", "1")
        assert run_cli(capsys, *argv, "--out", str(clean))[0] == cli.EXIT_OK
        out, ckpt = tmp_path / "n.jsonl", tmp_path / "n.ckpt"
        with pytest.raises(KeyboardInterrupt):
            search.run_search(
                search.SearchConfig(1, 10, 1, str(ckpt), str(out)), abort_after_p=5
            )
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(tail)
        result, _, err = run_cli(
            capsys, *argv, "--out", str(out), "--checkpoint", str(ckpt)
        )
        assert result == code
        if code == cli.EXIT_OK:
            assert out.read_bytes() == clean.read_bytes()
        else:
            assert err.count("\n") == 1 and "line 1 is not JSON" in err

    def test_ctrl_c_on_a_pool_run(self, tmp_path):
        """SIGINT to the whole process group, as a terminal's Ctrl-C sends
        it, while the run is blocked writing progress to a stderr pipe that
        nobody reads and its workers have gone idle: the workers ignore it,
        and the run exits 130 with one line besides its whole progress
        lines."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        out, ckpt = tmp_path / "c.jsonl", tmp_path / "c.ckpt"
        proc = subprocess.Popen(
            [sys.executable, "-m", "cuboidsearch.cli", "search",
             "--p-min", "99001", "--p-max", "100000", "--threads", "2",
             "--out", str(out), "--checkpoint", str(ckpt)],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            time.sleep(2)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert proc.returncode == cli.EXIT_INTERRUPTED
        assert "Traceback" not in err
        progress = re.compile(
            r"p=\d+ pairs=\d+ nonempty=\d+ obstructed=\d+ evaluated=0 hits=0"
        )
        other = [line for line in err.splitlines() if not progress.fullmatch(line)]
        assert other == ["interrupted; rerun the same command to resume"]
        assert 99001 <= search.SearchCheckpoint.read(str(ckpt)).last_completed_p < 100000

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("full", ["output", "checkpoint"])
    def test_write_error_names_the_file(self, tmp_path, capsys, full):
        # Python names no file when a write, flush or close fails; the
        # error line names the output, or the .tmp the checkpoint is
        # written through
        out, ckpt = str(tmp_path / "o.jsonl"), str(tmp_path / "c.ckpt")
        if full == "output":
            out = failing = "/dev/full"
        else:
            failing = ckpt + ".tmp"
            os.symlink("/dev/full", failing)
        code, _, err = run_cli(
            capsys, "search", "--p-max", "5", "--threads", "1",
            "--out", out, "--checkpoint", ckpt,
        )
        assert code == cli.EXIT_IO
        assert err.splitlines()[-1] == f"error: No space left on device ({failing})"

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

    def test_one_order_check_and_nine_signs(self, capsys, monkeypatch):
        # a passing roots checks the order once, inside certify_roots; the
        # nine signs take seven Horner passes, as the shared end T1.hi =
        # T2.lo is evaluated once and T5's ends are T4's conjugates
        counted = {"check_disjoint": 0, "value_at_sqrt2": 0}
        for name in counted:
            real = getattr(asymptotics, name)

            def spy(*args, real=real, name=name):
                counted[name] += 1
                return real(*args)

            monkeypatch.setattr(asymptotics, name, spy)
        code, out, _ = run_cli(capsys, "roots", "--p", "7", "--q", "500")
        assert code == cli.EXIT_OK and out.count("PASS") == 5
        assert counted == {"check_disjoint": 1, "value_at_sqrt2": 7}
        assert "approx" in out
        assert "T4" in out and "sqrt(2)" in out

    def test_certification_failed(self, capsys, monkeypatch):
        # T3 with its ends swapped fails the order, and T3 moved up by its
        # width, past its root, fails its signs with the order holding: the
        # report is printed as far as it got, then the failed check, and the
        # exit code says a check failed
        golden = (GOLDEN_DIR / "roots_p1_q59.txt").read_text().splitlines()
        lo, hi = golden[8:10]
        assert lo.startswith("    lo = ") and hi.startswith("    hi = ")
        swapped = [
            *golden[:8],
            hi.replace("hi =", "lo ="),
            lo.replace("lo =", "hi ="),
            *golden[10:16],
            "disjoint: False",
            "  real gap T3.lo - T2.hi = 200664/3481",
            golden[18],
            "certification FAILED: (p=1, q=59): order fails at T3.lo < T3.hi",
        ]
        moved = [
            *golden[:8],
            hi.replace("hi =", "lo ="),
            "    hi = 204450/3481  [approx 58.7331226659006032749209997127]",
            *golden[10:16],
            "disjoint: True",
            "  real gap T3.lo - T2.hi = 200664/3481",
            golden[18],
            "certification FAILED: (p=1, q=59): T3: sign(1,1)",
        ]
        real = asymptotics.asymptotic_intervals
        for move, expected in (
            (lambda t3: t3._replace(lo=t3.hi, hi=t3.lo), swapped),
            (lambda t3: t3._replace(lo=t3.hi, hi=t3.hi * 2 - t3.lo), moved),
        ):
            def changed(pair, move=move):
                intervals = real(pair)
                intervals[2] = move(intervals[2])
                return intervals

            monkeypatch.setattr(asymptotics, "asymptotic_intervals", changed)
            code, out, _ = run_cli(capsys, "roots", "--p", "1", "--q", "59")
            assert code == cli.EXIT_CHECK_FAILED
            assert out == "\n".join(expected) + "\n"

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

    @pytest.mark.parametrize(
        "p, q",
        [(1, 59), (7, 500), (13, 1000), (50, 5901), (10**12, 59 * 10**12 + 1)],
    )
    def test_golden_stdout(self, capsys, p, q):
        # the full output, byte for byte: certificate signs, real-root totals
        # and the decimal renderings; at p = 10^12 the endpoint integers run
        # to 54 digits and D^10 to about 10^130
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

    def test_totals_equal_sturm_counts_on_q(self, capsys):
        # the printed totals come from the degree count on R, doubled by
        # evenness; here they are recounted by Sturm's theorem on Q itself
        # over (0, B) and (-B, B)
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
            t3_hi = to_fraction(asymptotics.asymptotic_intervals(PQPair(p, q))[2].hi)
            B = math.ceil(t3_hi) + 1
            qpoly = build_qpq(PQPair(p, q))
            seq = fraction_sturm_sequence(qpoly)
            pos = fraction_sturm_count(qpoly, 0, B, seq)
            total = fraction_sturm_count(qpoly, -B, B, seq)
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
        (2500, 0, "approx 2500"),
        (Fraction(1, 8), 0, "approx 0.125"),
        (10**30, 0, "approx 1.00000000000000000000000000000E+30"),
        (10**30 + 15, 0, "approx 1.00000000000000000000000000002E+30"),
        (-(10**30 + 25), 0, "approx -1.00000000000000000000000000002E+30"),
        (Fraction(1, 10**7), 0, "approx 1E-7"),
        (Fraction(5, 2 * 10**30), 0, "approx 2.5E-30"),
        # 30 nines and a half round up to a 31st digit, which is carried
        (Fraction(10**31 - 5, 10**30), 0, "approx 10.0000000000000000000000000000"),
        (Fraction(5 - 10**31, 10**30), 0, "approx -10.0000000000000000000000000000"),
        (Fraction(2 * 10**30 - 1, 2), 0, "approx 1.00000000000000000000000000000E+30"),
    ])
    def test_hand_cases(self, a, b, text):
        x = quad(a, b)
        assert cli.approx_str(x) == fraction_approx_str(x) == text

    def test_matches_fraction_oracle_on_seeded_values(self):
        # every endpoint of 100 pairs with p up to 10^14, then triples of
        # either sign up to 10^60, a third of them rational
        rng = random.Random(2903)
        values = []
        while len(values) < 1000:
            p = rng.randint(1, 10**14)
            q = rng.randint(59 * p, 118 * p)
            if math.gcd(p, q) == 1:
                for iv in asymptotics.asymptotic_intervals(PQPair(p, q)):
                    values += (iv.lo, iv.hi)
        for _ in range(10000):
            A, B, D = (rng.randint(-10**60, 10**60) // 10**rng.randint(0, 59)
                       for _ in range(3))
            values.append(QuadRational(A, B if rng.randrange(3) else 0, abs(D) or 1))
        for x in values:
            assert cli.approx_str(x) == fraction_approx_str(x)


class TestNewtonCommand:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, "newton")
        assert code == cli.EXIT_OK
        assert out == (GOLDEN_DIR / "newton.txt").read_text()

    @pytest.mark.parametrize("name, claim, failure", [
        ("NEWTON_HULL", ((0, 10), (4, 10), (10, 0)), "grid node (6, 8) lies above the hull"),
        ("LEADING_TERMS", asymptotics.LEADING_TERMS[1:],
         "segment (0, 10) - (4, 10) has multiplicities summing to 0, not its degree"),
    ], ids=["hull", "terms"])
    def test_mutated_claim_fails(self, capsys, monkeypatch, name, claim, failure):
        # the report as far as the claimed hull, the failure, and exit 1
        monkeypatch.setattr(asymptotics, name, claim)
        code, out, err = run_cli(capsys, "newton")
        assert (code, err) == (cli.EXIT_CHECK_FAILED, "")
        hull = " - ".join(map(str, asymptotics.NEWTON_HULL))
        assert out.endswith(
            f"Upper hull: {hull}\n"
            f"certification FAILED: {failure}\n"
            "golden-data match: False\n"
        )
        assert out.startswith("Grid nodes (m, r, coefficient in p):\n")


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

    def test_perfect_cuboid(self, capsys, monkeypatch, planted):
        # the planted root of (3, 2), with the cuboid equations waived: each
        # case's septuple and its primitive form, then the verdict
        monkeypatch.setattr(cuboid_eqs, "_check_cuboid_equations", lambda *e: True)
        code, out, _ = run_cli(capsys, "verify", "--p", "3", "--q", "2", "--t", "12")
        assert code == cli.EXIT_CUBOID_FOUND
        assert out == (
            "Q(t) = 0\n"
            "lower bounds t > p^2, pq, q^2: pass\n"
            "(p^2 + t)(pq + t) > 2 t^2: pass\n"
            "verified cuboid (BU_EQ_A2): (156, 80, 192, 208, 255, 226, 260)\n"
            "  primitive form: (156, 80, 192, 208, 255, 226, 260)\n"
            "verified cuboid (AU_EQ_B2): (636, 720, 448, 848, 890, 1131, 1060)\n"
            "  primitive form: (636, 720, 448, 848, 890, 1131, 1060)\n"
            "verdict: PERFECT CUBOID\n"
        )

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


@pytest.mark.parametrize("argv, module, name", [
    (["roots", "--p", "1", "--q", "59"], asymptotics, "certify_roots"),
    (["newton"], asymptotics, "build_newton_grid"),
    (["verify", "--p", "1", "--q", "2", "--t", "5"], cuboid_eqs, "qpq_value"),
    (["identity-check", "--max-pq", "5"], cuboid_eqs, "factorization_check"),
], ids=["roots", "newton", "verify", "identity-check"])
def test_interrupt_outside_search(capsys, monkeypatch, argv, module, name):
    # Ctrl-C in every command but search, whose line says how to resume:
    # one stderr line, no traceback and exit 130; each command is stopped
    # before it prints
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(module, name, interrupted)
    assert run_cli(capsys, *argv) == (cli.EXIT_INTERRUPTED, "", "interrupted\n")


class FailingStream:
    """A stdout or stderr whose flush fails with `error`, and its write too
    when `at` is "write"."""

    def __init__(self, error, at):
        self.error, self.at = error, at

    def write(self, text):
        if self.at == "write":
            raise self.error
        return len(text)

    def flush(self):
        raise self.error


@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
], ids=["ENOSPC", "EPIPE"])
@pytest.mark.parametrize("at", ["write", "flush"])
@pytest.mark.parametrize("argv", [
    ["roots", "--p", "1", "--q", "59"],
    ["newton"],
    ["verify", "--p", "1", "--q", "2", "--t", "5"],
    ["identity-check", "--max-pq", "40"],
    ["--help"],
], ids=["roots", "newton", "verify", "identity-check", "help"])
def test_failed_stdout_is_an_io_error(capsys, monkeypatch, argv, at, error):
    # stdout on a full disk or a closed pipe, failing at a print or at the
    # flush that ends every command: exit 4 and one stderr line naming the
    # reason, as for any other I/O error, and no traceback
    monkeypatch.setattr(sys, "stdout", FailingStream(error, at))
    assert cli.main(argv) == cli.EXIT_IO
    assert capsys.readouterr().err == f"error: {error.strerror}\n"


@pytest.mark.parametrize("error", [
    OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
    OSError(errno.EBADF, os.strerror(errno.EBADF)),
    BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)),
], ids=["ENOSPC", "EBADF", "EPIPE"])
@pytest.mark.parametrize("failure, code", [
    ("refused", cli.EXIT_BAD_FLAGS),
    ("resume-mismatch", cli.EXIT_RESUME_MISMATCH),
    ("io", cli.EXIT_IO),
    ("interrupt", cli.EXIT_INTERRUPTED),
])
def test_failure_code_holds_without_stderr(tmp_path, monkeypatch, failure, code, error):
    # stderr on a full disk, closed or a closed pipe cannot take the
    # failure's line, and the failure keeps its exit code; the I/O error
    # is the failed write of search's first progress line to that stderr
    search_argv = ["search", "--p-max", "3", "--threads", "1",
                   "--out", str(tmp_path / "a.jsonl")]
    argv = ["roots", "--p", "1", "--q", "2"]
    if failure == "resume-mismatch":
        (tmp_path / "a.ckpt").write_text("garbage\n")
        argv = search_argv + ["--checkpoint", str(tmp_path / "a.ckpt")]
    elif failure == "io":
        argv = search_argv
    elif failure == "interrupt":
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(asymptotics, "certify_roots", interrupted)
        argv = ["roots", "--p", "1", "--q", "59"]
    monkeypatch.setattr(sys, "stderr", FailingStream(error, "write"))
    assert cli.main(argv) == code


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("stderr, command, code", [
    ("full", "roots", cli.EXIT_BAD_FLAGS),
    ("full", "search", cli.EXIT_IO),
    ("pipe", "roots", cli.EXIT_BAD_FLAGS),
    ("pipe", "search", cli.EXIT_IO),
    ("closed", "roots", cli.EXIT_BAD_FLAGS),
    ("closed", "search", cli.EXIT_OK),
])
def test_failure_code_holds_without_stderr_as_a_process(
    tmp_path, stderr, command, code, unbuffered
):
    # stderr on a full disk, on a pipe whose read end is closed, or fd 2
    # closed at start (sys.stderr is None, and stderr's lines are dropped):
    # the interpreter's exit does not write a failed line again, which
    # would make the code 120, and no line goes to stdout instead
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    argv = [sys.executable, "-m", "cuboidsearch.cli"] + (
        ["roots", "--p", "1", "--q", "2"] if command == "roots" else
        ["search", "--p-max", "3", "--threads", "1", "--out", str(tmp_path / "a.jsonl")]
    )
    run = dict(env=env, stdout=subprocess.PIPE, timeout=60)
    if stderr == "full":
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stderr=full, **run)
    elif stderr == "pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(argv, stderr=write_end, **run)
        finally:
            os.close(write_end)
    else:  # the shell closes fd 2 and starts the interpreter in its place
        proc = subprocess.run(["sh", "-c", 'exec "$@" 2>&-', "sh"] + argv, **run)
    assert (proc.returncode, proc.stdout) == (code, b"")


def test_library_fault_is_not_bad_flags(capsys, monkeypatch):
    # only refused input exits 2: a plain ValueError from inside a command
    # is a fault and leaves cli.main as it was raised
    def broken():
        raise ValueError("term breaks homogeneity")

    monkeypatch.setattr(asymptotics, "build_newton_grid", broken)
    with pytest.raises(ValueError, match="homogeneity") as raised:
        cli.main(["newton"])
    assert type(raised.value) is ValueError
    assert capsys.readouterr() == ("", "")


def test_refusals_share_one_type():
    # every refusal a command line reaches is an InvalidInput, which is a
    # ValueError; the library's internal checks raise a plain ValueError
    refusals = [
        lambda: PQPair(2, 4),
        lambda: search.SearchConfig(5, 1),
        lambda: search.SearchConfig(1, 5, 0),
        lambda: asymptotics.asymptotic_intervals(PQPair(1, 58)),
        lambda: cli._parse(["roots", "--p", "one"]),
    ]
    for refusal in refusals:
        with pytest.raises(cuboid_eqs.InvalidInput):
            refusal()
    assert issubclass(asymptotics.PreconditionViolated, cuboid_eqs.InvalidInput)
    assert issubclass(cuboid_eqs.InvalidInput, ValueError)
    faults = [
        lambda: cuboid_eqs.reconstruct_cuboid(1, 2, 5, "XX"),
        lambda: cuboid_eqs.reconstruct_cuboid(1, 2, 0, cuboid_eqs.CASES[0]),
    ]
    for fault in faults:
        with pytest.raises(ValueError) as raised:
            fault()
        assert not isinstance(raised.value, cuboid_eqs.InvalidInput)


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

    def test_threads_default_is_the_available_cpus(self):
        # a process that may run on one CPU of a 64-CPU host starts one
        # worker by default
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = (
            "import os; os.cpu_count = lambda: 64; "
            "os.sched_getaffinity = lambda pid: {0}; "
            "from cuboidsearch import cli; cli.main(['--help'])"
        )
        usage = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        ).stdout
        assert "\n  --threads  (default 1)\n" in usage

    def test_readme_command_lines(self):
        # every line of README's CLI block, as the handlers read it
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
        lines = [line.split()[1:] for line in block.splitlines()]
        threads = search.available_cpus()
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
