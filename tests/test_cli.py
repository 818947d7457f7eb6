"""CLI behaviour: outputs, exit codes, determinism, and schema round-trips."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import pow2_digits, regex_count
from blockprod import cli
from blockprod.cli import main
from blockprod.identities import ProductSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def source_env() -> dict:
    """The environment with this checkout's ``src`` first on ``PYTHONPATH``, for a fresh interpreter."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


class TestCount:
    def test_paper_example(self, capsys):
        code, out, _ = run(capsys, "count", "--base", "2", "--word", "11", "15")
        assert code == 0
        assert out == "3\n"

    def test_base4(self, capsys):
        code, out, _ = run(capsys, "count", "--base", "4", "--word", "0", "4")
        assert code == 0
        assert out == "1\n"  # "10" in base 4 has a single zero digit

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "count", "--base", "2", "--word", "001", "0")
        assert code == 0
        assert out == "0\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--base", "2", "--word", "001", "--format", "json", "4")
        assert code == 0
        assert json.loads(out) == {"base": 2, "word": "001", "n": 4, "count": 1}

    def test_validation_exit_2(self, capsys):
        code, _, err = run(capsys, "count", "--base", "2", "--word", "", "5")
        assert code == 2
        assert "error" in err
        code, _, err = run(capsys, "count", "--base", "2", "--word", "12", "5")
        assert code == 2

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--word", "11", "15"])  # missing --base
        assert exc.value.code == 2

    def test_power_of_two_bases_at_4000_digits(self, capsys):
        """A 4000-digit n, just under Python's 4300-digit int limit, in bases 2 and 4."""
        n = random.Random(4000).randrange(10**3999, 10**4000)
        for base, word in ((2, "101"), (4, "03")):
            code, out, _ = run(capsys, "count", "--base", str(base), "--word", word, str(n))
            assert code == 0
            assert out == f"{regex_count(word, pow2_digits(n, base))}\n"


class TestInternalError:
    def test_unexpected_exception_exit_3(self, capsys, monkeypatch):
        def broken(word, n):
            raise ArithmeticError("series did not converge")

        monkeypatch.setattr(cli, "count_block", broken)
        code, out, err = run(capsys, "count", "--base", "2", "--word", "11", "15")
        assert code == 3  # not 1, which means a check ran and did not hold
        assert out == ""
        assert "internal error: ArithmeticError: series did not converge" in err


class TestClosedPipe:
    def test_reader_gone_is_not_a_crash(self):
        """Output into a pipe that nobody reads (``| true``, ``| head``): no traceback, not exit 3."""
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "blockprod.cli", "count", "--base", "2", "--word", "11", "15"],
                stdout=write_end, stderr=subprocess.PIPE, env=source_env(), timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == cli.EXIT_BROKEN_PIPE != 3
        assert proc.stderr == b""


class TestImportContract:
    def test_start_loads_no_dataclasses_inspect_or_csv(self):
        """A cold ``import blockprod.cli`` leaves out ``dataclasses`` (with the ``inspect`` it
        pulls in), ``csv``, ``typing``, ``threading`` and ``random``, and ``--format csv`` still
        prints CSV.  ``-S`` keeps what the site hooks import out of the count."""
        code = ("import sys, blockprod.cli\n"
                "print(sorted({'dataclasses', 'inspect', 'csv', 'typing', 'threading', 'random'}"
                " & set(sys.modules)))\n"
                "blockprod.cli.main(['count', '--base', '2', '--word', '11', '15', '--format', 'csv'])")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                              env=source_env(), timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "[]\nbase,word,n,count\n2,11,15,3\n"


class TestClosedForm:
    def test_word_zero(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--base", "2", "--word", "0")
        assert code == 0
        assert out == "8 * G(1/2) / (G(1/4)^2)\n"

    def test_word_one(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--base", "2", "--word", "1")
        assert out == "G(1/2) / (G(3/4)^2)\n"

    def test_word_00(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--base", "2", "--word", "00")
        assert out == "16 * G(1/4) / (G(1/8)^2)\n"

    def test_json_includes_expression_fields(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--base", "2", "--word", "0", "--format", "json")
        obj = json.loads(out)
        assert obj["text"] == "8 * G(1/2) / (G(1/4)^2)"
        assert obj["prefactor"] == "8"
        assert obj["num"] == ["1/2"]
        assert obj["den"] == ["1/4", "1/4"]

    def test_base3_defaults(self, capsys):
        code, out, _ = run(capsys, "closed-form", "--base", "3", "--word", "2")
        assert code == 0
        assert "G(" in out

    def test_explicit_parameters(self, capsys):
        """The base-2 family's parameters, typed in any order, print the paper's form, as the
        defaults do; the words of value 0 are where the general form would differ."""
        for word, want in (("1", "G(1/2) / (G(3/4)^2)"), ("0", "8 * G(1/2) / (G(1/4)^2)"),
                           ("00", "16 * G(1/4) / (G(1/8)^2)")):
            for a, b in (("1,1", "0,2"), ("1,1", "2,0")):
                code, out, _ = run(capsys, "closed-form", "--base", "2", "--word", word, "--a", a, "--b", b)
                assert (code, out) == (0, want + "\n"), (word, b)

    def test_unbalanced_parameters_exit_2(self, capsys):
        code, _, err = run(
            capsys, "closed-form", "--base", "2", "--word", "1", "--a", "1,1", "--b", "0,3"
        )
        assert code == 2


class TestVerify:
    def test_rivoal_small(self, capsys):
        code, out, _ = run(capsys, "verify", "rivoal", "--terms", "2000")
        assert code == 0
        assert "verdict: pass" in out
        assert "spec: rivoal_eq1" in out

    def test_companion_small(self, capsys):
        code, out, _ = run(capsys, "verify", "companion", "--terms", "2000")
        assert code == 0
        assert "verdict: pass" in out

    def test_word_target(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--base", "2", "--word", "101", "--terms", "3000"
        )
        assert code == 0
        assert "verdict: pass" in out

    def test_json_round_trips_spec(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--base", "2", "--word", "10", "--terms", "500",
            "--format", "json",
        )
        obj = json.loads(out)
        spec = ProductSpec.from_json_dict(obj["spec"])
        assert spec.word.render() == "10"
        assert obj["verdict"] == "pass"

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "verify", "rivoal", "--terms", "500", "--format", "csv"
        )
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "spec" and rows[1][0] == "rivoal_eq1"
        assert rows[1][-1] == "pass"

    def test_unknown_formula_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "euler")
        assert code == 2

    def test_missing_target_exit_2(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--base", "3"), ("--word", "12"), ("--a", "banana"), ("--b", "0,2")])
    def test_named_formula_takes_no_spec_flags(self, capsys, flag, value):
        """A named formula fixes its product, so a spec flag beside it is refused, not ignored."""
        code, out, err = run(capsys, "verify", "rivoal", "--terms", "1000", flag, value)
        assert (code, out) == (2, "")
        assert "a named formula takes no --base, --word, --a or --b" in err


class TestLemma1Fuzz:
    def test_thousand_exact(self, capsys):
        code, out, _ = run(capsys, "lemma1-fuzz", "--trials", "200", "--seed", "7")
        assert code == 0
        assert out.splitlines()[0] == "200/200 exact"

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "lemma1-fuzz", "--trials", "60", "--seed", "3")
        _, out2, _ = run(capsys, "lemma1-fuzz", "--trials", "60", "--seed", "3")
        assert out1 == out2

    def test_misrange_negative_control(self, capsys):
        code, out, _ = run(
            capsys, "lemma1-fuzz", "--trials", "40", "--seed", "1", "--misrange"
        )
        assert code == 1
        assert "counterexample" in out

    def test_json_output(self, capsys):
        code, out, _ = run(
            capsys, "lemma1-fuzz", "--trials", "25", "--seed", "9", "--format", "json"
        )
        obj = json.loads(out)
        assert obj["trials"] == 25 and obj["exact"] == 25

    def test_huge_base(self, capsys):
        """A trial costs O(|support|) whatever the base, so the base needs no cap."""
        code, out, _ = run(capsys, "lemma1-fuzz", "--bases", "1000000000", "--trials", "20")
        assert code == 0
        assert out == "20/20 exact\n"

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_huge_base_counterexample(self, capsys, fmt):
        """A verified failure in a base above 36, which has no digit characters, exits 1
        and prints its word as the digit list."""
        code, out, err = run(capsys, "lemma1-fuzz", "--bases", "1000000000", "--trials", "20",
                             "--misrange", "--format", fmt)
        assert code == 1 and err == ""
        if fmt == "text":
            assert out.splitlines() == [
                "14/20 exact",
                "counterexample at trial 7: base=1000000000 word=[0, 0, 0, 0, 0] f0=7 residual=-7",
            ]
            return
        if fmt == "json":
            record = json.loads(out)
        else:
            (record,) = csv.DictReader(io.StringIO(out))
            record["counterexample"] = json.loads(record["counterexample"])
        assert record["counterexample"]["base"] == 1000000000
        assert record["counterexample"]["word"] == [0, 0, 0, 0, 0]


class TestEnumerate:
    def test_csv_fourteen_rows(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--base", "2", "--max-len", "3",
            "--terms", "2000", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 1 + 14  # header + all nonempty words of length <= 3
        assert all(row[-1] == "pass" for row in rows[1:])

    def test_lexicographic_order(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--base", "2", "--max-len", "2",
            "--terms", "500", "--format", "csv",
        )
        rows = list(csv.reader(io.StringIO(out)))
        words = [row[0].split()[1].split("=")[1] for row in rows[1:]]
        assert words == ["0", "00", "01", "1", "10", "11"]

    def test_corpus_guard_exit_2(self, capsys):
        code, _, err = run(capsys, "enumerate", "--base", "10", "--max-len", "4")
        assert code == 2

    @pytest.mark.parametrize("base", ["1", "0", "-2"])
    def test_base_below_two_exit_2(self, capsys, base):
        """An empty corpus is refused, not reported as a pass of no words."""
        code, out, err = run(capsys, "enumerate", "--base", base, "--max-len", "3")
        assert code == 2 and out == "" and "base must be >= 2" in err

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_base_above_36_exit_2_before_summing(self, capsys, monkeypatch, fmt):
        """Every format prints the words as digit strings, which a base above 36 lacks: the base
        is refused before any word is summed."""
        def summed(*args, **kwargs):
            raise AssertionError("a word was summed")

        monkeypatch.setattr(cli, "enumerate_words", summed)
        code, out, err = run(capsys, "enumerate", "--base", "40", "--max-len", "1",
                             "--terms", "1000", "--format", fmt)
        assert code == 2 and out == "" and "--base must be at most 36, got 40" in err
        monkeypatch.undo()
        code, out, _ = run(capsys, "enumerate", "--base", "36", "--max-len", "1",
                           "--terms", "1000", "--format", fmt)
        assert code == 0 and "z" in out

    def test_terms_at_the_shared_cap(self, capsys):
        """``enumerate`` runs at ``N = 10^30``, the cap it shares with word products."""
        code, out, _ = run(capsys, "enumerate", "--base", "2", "--max-len", "1",
                           "--terms", str(cli.MAX_BLOCK_SUM_TERMS), "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 0 and [r["terms_used"] for r in rows] == [str(10**30)] * 2

    def test_corpus_cap_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--base", "2", "--max-len", "1", "--max-words", "9"])
        assert exc.value.code == 2


class TestAlternating:
    def test_cauchy_report(self, capsys):
        code, out, _ = run(capsys, "alternating", "--terms", "20000")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert lines["terms"] == "20000"
        assert int(lines["stable_digits"]) >= 4
        assert float(lines["cauchy_gap_fine"]) < float(lines["cauchy_gap_coarse"])

    def test_too_few_terms_exit_2(self, capsys):
        code, _, _ = run(capsys, "alternating", "--terms", "50")
        assert code == 2

    def test_takes_no_tolerance(self, capsys):
        """The report has no verdict to hold to a tolerance, so the flag is a usage error."""
        with pytest.raises(SystemExit) as exc:
            main(["alternating", "--terms", "1000", "--tolerance", "1/10"])
        assert exc.value.code == 2
        assert "--tolerance" in capsys.readouterr().err


class TestRivoalForms:
    def test_exact_match(self, capsys):
        code, out, _ = run(capsys, "rivoal-forms", "--blocks", "200")
        assert code == 0
        assert "exact match" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "rivoal-forms", "--blocks", "50", "--format", "json")
        obj = json.loads(out)
        assert obj["exact_match"] is True
        assert obj["original_terms"] == 203


class TestOutputDigests:
    """The stdout of these runs is pinned by its sha256: any change of the numbers they
    print, however small, must be deliberate and show here."""

    RUNS = [
        ("verify companion --terms 10000000",
         "b379454221cf5a54ae9141741556d75b7c641424ef603ee9b3a0d8a8efe4a0df"),
        ("verify --base 10 --word 7 --terms 10000000",
         "22c075caeb2329e73f498b632bf1818719209091dc737cbeeae95d2905c097fb"),
        ("verify --base 3 --word 12 --terms 10000 --precision 1024",
         "087f7bdce716b9b7b8cb52d534e527b91aa344dc9c0ea55a792b01227753e062"),
        ("enumerate --base 2 --max-len 3 --terms 10000000",
         "2b18bba2c28646c771a590442fe461a2a4320adce09a58046afe8258af40b1a2"),
        (f"verify rivoal --terms {10**30} --precision 2048",
         "0e85e0bd27eb0019cb313c0d51f866a1f0c5db5317b60c23db9dabafd65043ab"),
        (f"rivoal-forms --blocks {10**30} --precision 2048",
         "001c93eeb4d367cc7787f1b5c9d49fe15929ddb30ae894d399376d52f0f10197"),
        # a closed form whose Gamma(1) is dropped, and the non-integer spec, at 2048 bits
        ("verify --base 4 --word 00 --terms 1000 --precision 2048",
         "e69dd6f25d317b3e63d1ae6294f769f543b752bb22d8e11df78e83d98d8ad6c2"),
        ("verify --base 3 --word 12 --a 1/2,3/2 --b 1/3,5/3 --terms 1000 --precision 2048",
         "1b4a6a20c9786e1b0fb3fa77c97ff52b4789a31a49d875754be42e80c064fb0e"),
        # words of value 0, whose shifted sums start at B^L
        ("closed-form --base 2 --word 0",
         "1a2fcff894c7e73e6e448c79da656ce1ace9709bc02da6012daf2dbe10882368"),
        ("closed-form --base 3 --word 00 --a 1,1 --b 0,2 --format json",
         "f16a7b6fd276f5cf37753675554b962856289642b9882461af26591f8442365f"),
        ("lemma1-fuzz --trials 200 --seed 5 --misrange --format json",
         "b3c2539034072da1ccb723bd810ed46ead1d3fa5e31e799c1bef0b1bcc7dfcd3"),
        # text, compact JSON and CSV of each command's output path
        ("alternating",
         "e5d15a8e7e7397799675377576c77f573399b21088210b969450c1d153b8f8ab"),
        ("alternating --format json",
         "f2f035d5992055b11a92c52f17d3052f295eeb66d83d4df7bcedd1b4af3af565"),
        ("count --base 3 --word 012 12345678901234567890 --format json",
         "e2220f9a7cfac704b99daaec0909d9b6e2874267bc69d8230dbc82b25e55f829"),
        ("count --base 3 --word 012 12345678901234567890 --format csv",
         "ff45a3fc59f49b1c672c7e3e9f03c3b0fcabecd12f4734893a3a1274a34561cc"),
        ("closed-form --base 2 --word 101",
         "e235522a41ce70055ecbe2339b66f60f0684452290143095e4e6aef0967a73a3"),
        ("closed-form --base 2 --word 101 --format csv",
         "97e10edf63f8a4920f07d4062f3b685b3897dfad75e55f998c84e910ff739dc7"),
        ("verify rivoal --terms 1000 --format csv",
         "f07c185b801742116a8df809eb70a70641bf36154bfeaac2c367349741850143"),
        ("enumerate --base 2 --max-len 2 --terms 1000",
         "7dc6cb11ee3bf2780fd7af0ce51d2a8ba2c1fca4940fd38b489c040e4e1a3bee"),
        ("enumerate --base 2 --max-len 2 --terms 1000 --format json",
         "61319f4ff804e20bd2afb782f8f70c5ec9ca72f64399a95e2f4e574e81f27c8f"),
        ("lemma1-fuzz --trials 50 --seed 3",
         "e21fe4dc23bda7bd587c610b5244123e0bb0b1df1ab6bda606871737709e55f9"),
        # the default 1000 trials, which draw many words more than once
        ("lemma1-fuzz --format json",
         "f901a42d7328de40ad755ced0ed79d1da3382d8859156bc5a4e1abb5c5729370"),
        ("lemma1-fuzz --misrange --format json",
         "6ec17ff98533b440a692ac51eb9dfdf0d42a1653a72ccd25b9b8f1cbeedebf9a"),
        # the once-rounded gaps at 2048 bits, and the prefactor-8 product at 1024 bits
        ("alternating --terms 1000000 --precision 2048 --format csv",
         "4711924e828b863f267dde92158136ac9dcb6eff55cbd9596c76ad554056314b"),
        (f"verify companion --terms {10**30} --precision 1024 --format json",
         "0972bf99ff3f83668d1616087620cedea6f035bf398d8aa425f0852c911fced4"),
    ]
    # the mis-ranged controls are verified failures
    EXIT_CODES = {"lemma1-fuzz --trials 200 --seed 5 --misrange --format json": 1,
                  "lemma1-fuzz --misrange --format json": 1}

    @pytest.mark.parametrize("argv, digest", RUNS, ids=[argv for argv, _ in RUNS])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == self.EXIT_CODES.get(argv, 0)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def json_text(value) -> str:
    """A CSV cell's expected text: a string as it is, any other value as compact JSON."""
    return value if isinstance(value, str) else json.dumps(value, separators=(",", ":"))


class TestCsvMatchesJson:
    """``--format csv`` holds the same fields as ``--format json``."""

    @pytest.mark.parametrize("argv", [
        "alternating --terms 1000",
        "rivoal-forms --blocks 50",
        "lemma1-fuzz --trials 50 --seed 3",
        "lemma1-fuzz --trials 40 --seed 1 --misrange",
        "count --base 3 --word 012 12345678901234567890",
    ])
    def test_header_is_the_json_keys(self, capsys, argv):
        """One header of the JSON keys and one row of their values' text."""
        code, out, _ = run(capsys, *argv.split(), "--format", "json")
        obj = json.loads(out)
        code_csv, out, _ = run(capsys, *argv.split(), "--format", "csv")
        assert code_csv == code
        header, row = csv.reader(io.StringIO(out))
        assert header == list(obj)
        assert row == [json_text(v) for v in obj.values()]
        if "counterexample" in obj:
            assert json.loads(row[-1]) == obj["counterexample"]

    @pytest.mark.parametrize("argv", [
        "verify rivoal --terms 500",
        "verify --base 3 --word 12 --a 1/2,3/2 --b 1/3,5/3 --terms 500",
        "enumerate --base 2 --max-len 2 --terms 500",
    ])
    def test_report_columns(self, capsys, argv):
        """A report's CSV keeps its nine columns: the JSON keys but ``tolerance`` and
        ``tail_factor``, with the spec as its label."""
        code, out, _ = run(capsys, *argv.split(), "--format", "json")
        objs = json.loads(out)
        objs = objs if isinstance(objs, list) else [objs]
        code_csv, out, _ = run(capsys, *argv.split(), "--format", "csv")
        assert code_csv == code
        header, *rows = csv.reader(io.StringIO(out))
        assert header == [k for k in objs[0] if k not in ("tolerance", "tail_factor")]
        assert len(rows) == len(objs)
        for obj, row in zip(objs, rows):
            spec = obj["spec"]
            label = spec.get("formula") or (
                f"base={spec['base']} word={spec['word']} a={','.join(spec['a'])} b={','.join(spec['b'])}")
            assert row == [label if k == "spec" else json_text(obj[k]) for k in header]


class TestDeterminismAndConfig:
    def test_byte_identical_reruns(self, capsys):
        args = ("verify", "rivoal", "--terms", "800", "--format", "json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [
        "count --base 2 --word 1 5 --precision 5000",
        "closed-form --base 2 --word 1 --precision 12",
        "lemma1-fuzz --trials 10 --precision 128",
    ])
    def test_precision_only_where_read(self, capsys, argv):
        """Commands that compute nothing at a precision take no ``--precision``: the flag is a
        usage error, whatever its value."""
        with pytest.raises(SystemExit) as exc:
            main(argv.split())
        assert exc.value.code == 2
        assert "unrecognized arguments: --precision" in capsys.readouterr().err


class TestInputCaps:
    """Sizes above the caps exit 2 before any work starts; sizes at the caps run."""

    def test_precision_cap(self, capsys):
        over = str(cli.MAX_PRECISION + 1)
        code, _, err = run(capsys, "verify", "rivoal", "--terms", "200", "--precision", over)
        assert code == 2 and "--precision must be at most" in err

    def test_block_sum_terms_cap(self, capsys):
        code, out, _ = run(capsys, "verify", "rivoal", "--terms", str(10**30))
        assert code == 0 and f"terms_used: {10**30}" in out
        code, _, err = run(capsys, "verify", "rivoal", "--terms", str(10**30 + 1))
        assert code == 2 and "--terms must be at most" in err

    def test_alternating_terms_cap(self, capsys):
        code, out, _ = run(capsys, "alternating", "--terms", str(10**30))
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        # the estimates agree to every printed digit at 128 bits
        assert lines["cauchy_gap_fine"] == "0" and lines["stable_digits"] == "37"
        code, _, _ = run(capsys, "alternating", "--terms", str(10**30 + 1))
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "companion"),
            ("verify", "--base", "2", "--word", "101"),
            ("enumerate", "--base", "2", "--max-len", "1"),
        ],
    )
    def test_per_term_terms_cap(self, capsys, argv):
        """Word specs, the companion and ``enumerate`` share the block-sum cap."""
        code, _, err = run(capsys, *argv, "--terms", str(cli.MAX_BLOCK_SUM_TERMS + 1))
        assert code == 2 and "--terms must be at most" in err

    @pytest.mark.parametrize("argv", [("verify", "companion"), ("verify", "--base", "2", "--word", "101")])
    def test_word_terms_cap(self, capsys, argv):
        """Word products and the companion run at ``N = 10^30``, the cap they share with the
        4/pi families."""
        assert cli.MAX_BLOCK_SUM_TERMS == 10**30
        code, out, _ = run(capsys, *argv, "--terms", str(cli.MAX_BLOCK_SUM_TERMS))
        assert code == 0 and f"terms_used: {10**30}" in out

    def test_parameter_caps(self, capsys):
        """``--a`` and ``--b`` take at most ``MAX_PARAMS`` parameters each, each at most
        ``MAX_PARAM`` with a denominator of at most ``MAX_PARAM_DENOMINATOR``; at the caps the
        spec runs."""
        assert (cli.MAX_PARAMS, cli.MAX_PARAM, cli.MAX_PARAM_DENOMINATOR) == (8, 32, 64)
        spec = ("verify", "--base", "2", "--word", "1", "--terms", "100")
        code, out, _ = run(capsys, *spec, "--a", "32,1/64,1,1,1,1,1,1", "--b", "31,65/64,0,2,0,2,0,2")
        assert code == 0 and "verdict: pass" in out
        for a, b, message in [
            ("33,1", "34,0", "each --a parameter must be at most 32"),
            ("1,1", "1/65,129/65", "each --b denominator must be at most 64"),
            ("1,1,1,1,1,1,1,1,1", "0,2,0,2,0,2,0,2,1", "the number of --a parameters must be at most 8"),
        ]:
            code, _, err = run(capsys, *spec, "--a", a, "--b", b)
            assert code == 2 and message in err, err

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("flag", ["--tolerance", "--a", "--b"])
    def test_rational_text_caps(self, capsys, flag, fmt):
        """A ``--tolerance``, ``--a`` or ``--b`` text longer than ``MAX_RATIONAL_TEXT``, or with a
        decimal exponent beyond it, exits 2 before ``Fraction`` builds its power of ten (parsing
        ``1e-9999999`` took 9.5 s, and printing it failed); ``1e-600`` still parses."""
        assert cli.MAX_RATIONAL_TEXT == 1000

        def argv(value):
            spec = {"--tolerance": ("rivoal", "--tolerance", value),
                    "--a": ("--base", "2", "--word", "1", "--a", f"{value},1", "--b", "0,1"),
                    "--b": ("--base", "2", "--word", "1", "--a", "1,1", "--b", f"0,{value}")}[flag]
            return ("verify", *spec, "--terms", "1000", "--format", fmt)

        for value, message in [
            ("1e-9999999", f"the decimal exponent of {flag} must be at most 1000, got 9999999"),
            ("1E+1_000_000", f"the decimal exponent of {flag} must be at most 1000, got 1000000"),
            ("1" * 1001, f"the length of {flag} must be at most 1000, got "),
        ]:
            start = time.perf_counter()
            code, out, err = run(capsys, *argv(value))
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "") and message in err, err
        code, out, err = run(capsys, *argv("1e-600"))
        if flag == "--tolerance":
            assert (code, err) == (0, "") and "pass" in out
        else:  # parsed, then refused by the parameter caps as before
            assert code == 2 and f"each {flag} denominator must be at most 64, got 1{'0' * 600}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--base", "2", "--word", "1", "--terms", str(2**40), "--precision", "256"),
            ("verify", "--base", "3", "--word", "1", "--terms", str(3**25), "--precision", "1024"),
            ("verify", "companion", "--terms", str(2**40), "--precision", "512"),
        ],
    )
    def test_word_plans_at_powers_of_the_base(self, argv):
        """At ``N = B^k`` a level's last class pieces cover only a few indices; the plan visits
        their residues alone, not all ``B^j`` of the level (each command finishes in under a second;
        walking every residue ran past 15 s).  A fresh process, so a return of the walk times out
        instead of stalling the suite."""
        proc = subprocess.run([sys.executable, "-m", "blockprod.cli", *argv], capture_output=True,
                              text=True, env=source_env(), timeout=60)
        assert proc.returncode == 0 and proc.stdout.endswith("verdict: pass\n"), proc.stderr

    def test_blocks_cap(self, capsys):
        code, _, err = run(capsys, "rivoal-forms", "--blocks", str(cli.MAX_BLOCK_SUM_TERMS + 1))
        assert code == 2 and "--blocks must be at most" in err

    def test_trials_cap(self, capsys):
        code, _, err = run(capsys, "lemma1-fuzz", "--trials", str(cli.MAX_TRIALS + 1))
        assert code == 2 and "--trials must be at most" in err
        # a negative count is a usage error, not a verified failure (exit 1)
        code, _, err = run(capsys, "lemma1-fuzz", "--trials", "-5")
        assert code == 2 and "--trials must be >= 0" in err

    @pytest.mark.parametrize(
        "flag, cap", [("--max-support", cli.MAX_SUPPORT), ("--max-word-len", cli.MAX_WORD_LEN)]
    )
    def test_fuzz_size_caps(self, capsys, flag, cap):
        code, out, _ = run(capsys, "lemma1-fuzz", "--trials", "3", flag, str(cap))
        assert code == 0 and "3/3 exact" in out
        code, _, err = run(capsys, "lemma1-fuzz", "--trials", "3", flag, str(cap + 1))
        assert code == 2 and f"{flag} must be at most {cap}" in err
        # zero used to fail inside random.randrange with a message naming no flag
        for value in ("0", "-1"):
            code, _, err = run(capsys, "lemma1-fuzz", "--trials", "3", flag, value)
            assert code == 2 and f"{flag} must be >= 1" in err
