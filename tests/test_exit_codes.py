"""The exit-code contract of ``cli.main`` on drawn command lines: 0 pass, 1 a
mathematical check failed, 2 bad usage or a bad spec, and never a traceback.

Specs, action data, options and written sums are drawn from pools of good and
bad fields.  An example is either clean (good fields only, so the mathematical
paths run) or mixed (any field may be bad, and a key may be dropped, added or
given an unknown kind).
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import given, settings, strategies as st

from wittdiamond.cli import main

GOOD_NUMBERS = ["1/2", "3", "-2/3", "1", "2", "-1/3", "5/2"]
BAD_NUMBERS = ["0", "1/0", "1.5", "+1", "x", "1" + "0" * 29, "", "١"]
# Values a spec file may hold where a number string belongs.
BAD_JSON = [*BAD_NUMBERS, 1, 1.5, None, True, [], {}]
GOOD_G = [[[0, "1"]], [[0, "1"], [2, "1"]], [[1, "2"], [2, "-1/3"]]]
BAD_G = [[], [[1001, "1"]], [[0, "x"]], [[0]], "t^2", [[-1, "1"]]]
GOOD_POLYS = [[[[0, 0], "1/2"]], [[[0, 0], "1"], [[0, 2], "1"]], [[[0, 0], "-3"]],
              [[[0, 1], "1/3"], [[0, 3], "1/3"]], []]
BAD_POLYS = [[[[0], "1"]], [[[0, 1000001], "1"]], [[[-1, 0], "1"]], [[[0, 0], "1/0"]],
             [[[1, 0], "1"]], "x"]
WORDS = ["L[1]", "a[2] c[-1]", "d[-1] L[2]", "Q", "b[0]", "c[0] d[0]", "L[-2] a[1]"]
BAD_WORDS = ["x[1]", "L[99999999999]", "L[1", "L[1.5]", "a[١]", ""]
MONOMIALS = ["s", "t^2", "s t", "1", "x0 h^2", "x1^-1", "t1", "s1^2 t2", "s3"]
BAD_MONOMIALS = ["s^100000", "y", "s^1.5", "s -", "0"]
COEFFICIENTS = ["", "2 ", "1/2 ", "-3 "]
BAD_COEFFICIENTS = ["1/0 ", "2*-3 ", "+ -", "1.5 "]
GOOD_OPTIONS = [["--max-m", "2", "--max-s", "1"], ["--max-m", "1", "--max-s", "2"],
                ["--alphas", "-2/3,1/2,3", "--max-m", "2", "--max-s", "1"]]
BAD_OPTIONS = [["--max-m", "4", "--max-s", "3"], ["--max-m", "2", "--max-s", "40"],
               ["--max-m", "١"], ["--max-s", "1_0"], ["--max-m", "0"],
               ["--alphas", "1,1", "--max-m", "2", "--max-s", "1"], ["--alphas", "0,x"],
               ["--naive-limit", "3"], ["--samples", "2"]]
UNKNOWN_KINDS = ["Q", "T", "M", ""]
# Whole input files that are not a JSON object of unique keys.
BAD_FILES = ["{", "", "[]", "null", "1", '{"family": "Omega", "g": [], "g": []}', "\udcff"]


class Pools:
    """Draws one field from the good pool, or, in a mixed example, from both."""

    def __init__(self, draw, clean):
        self.draw, self.clean = draw, clean

    def pick(self, good, bad):
        return self.draw(st.sampled_from(good if self.clean else good + bad))

    def number(self, bad=BAD_JSON):
        return self.pick(GOOD_NUMBERS, bad)

    def mutate(self, obj):
        """A mixed example's object with a key dropped, added or given an unknown kind."""
        if self.clean or not isinstance(obj, dict) or not obj:
            return obj
        how = self.draw(st.sampled_from(["keep", "drop", "extra", "kind"]))
        if how == "drop":
            del obj[self.draw(st.sampled_from(sorted(obj)))]
        elif how == "extra":
            obj["x"] = self.number()
        elif how == "kind" and ("kind" in obj or "family" in obj):
            obj["kind" if "kind" in obj else "family"] = self.draw(st.sampled_from(UNKNOWN_KINDS))
        return obj

    def factor(self):
        return self.mutate({"alpha": self.number(), "beta": self.number(),
                            "gamma": self.number(), "lambda": self.number(),
                            "g": self.pick(GOOD_G, BAD_G)})

    def spec(self):
        family = self.draw(st.sampled_from(["Omega", "T", "F"]))
        if family == "Omega":
            return self.mutate({"family": "Omega", **self.factor()})
        if family == "T":
            factors = [self.factor() for _ in range(self.draw(st.integers(1, 3)))]
            return self.mutate({"family": "T", "factors": factors})
        p_kind = self.draw(st.sampled_from(["M", "Omega", "P0xM"]))
        if p_kind == "M":
            p = {"kind": "M", "w": [self.number(), self.number()]}
        elif p_kind == "Omega":
            p = {"kind": "Omega", "lambda": [self.number(), self.number()]}
        else:
            p0 = ({"kind": "M", "w": self.number()} if self.draw(st.booleans())
                  else {"kind": "Omega", "lambda": self.number()})
            p = {"kind": "P0xM", "P0": self.mutate(p0), "w": self.number()}
        v = ({"kind": "C_eps", "eps": self.number()} if self.draw(st.booleans())
             else {"kind": "Whittaker"})
        return self.mutate({"family": "F", "alpha": self.number(), "beta": self.number(),
                            "P": self.mutate(p), "V": self.mutate(v)})

    def data(self):
        return self.mutate({"lambda": self.number(),
                            **{key: self.pick(GOOD_POLYS, BAD_POLYS)
                               for key in ("p", "B0", "C0", "D0")}})

    def written_sum(self, terms, bad_terms):
        out = ""
        for i in range(self.draw(st.integers(1, 2))):
            sign = self.draw(st.sampled_from([" + ", " - "])) if i else ""
            out += sign + self.pick(COEFFICIENTS, BAD_COEFFICIENTS) + self.pick(terms, bad_terms)
        return out


@st.composite
def command_lines(draw):
    """(argv, {file name: JSON document, or the text of a bad file}) of one command line."""
    pools = Pools(draw, clean=draw(st.booleans()))

    def number():
        return pools.number(BAD_NUMBERS)

    command = draw(st.sampled_from(["verify-hom", "act", "simplicity", "rank", "iso",
                                    "classify", "det-lemma"]))
    files = {}
    if command == "verify-hom":
        argv = ["--map", pools.pick(["ab", "abgg"], ["x"]), "--alpha", number(),
                "--beta", number()]
        if draw(st.booleans()):
            argv += ["--gamma", number()]
        if draw(st.booleans()):
            argv += ["--g", pools.written_sum(["t", "t^2", "1"], ["s", "t^1001", "t^-1"])]
        if draw(st.booleans()):
            argv.append("--corrupted")
    elif command == "classify":
        files["data.json"] = pools.data()
        argv = ["--data", "data.json"]
    elif command == "det-lemma":
        argv = pools.pick(GOOD_OPTIONS, BAD_OPTIONS)
    elif command == "iso":
        files["left.json"], files["right.json"] = pools.spec(), pools.spec()
        argv = ["--left", "left.json", "--right", "right.json"]
    else:
        files["spec.json"] = pools.spec()
        argv = ["--spec", "spec.json"]
        if command == "act":
            argv += ["--expr", pools.written_sum(WORDS, BAD_WORDS),
                     "--vector", pools.written_sum(MONOMIALS, BAD_MONOMIALS)]
        elif command == "rank" and draw(st.booleans()):
            argv += ["--vector", pools.written_sum(MONOMIALS, BAD_MONOMIALS)]
    if files and not pools.clean and draw(st.booleans()):
        files[draw(st.sampled_from(sorted(files)))] = draw(st.sampled_from(BAD_FILES))
    return [command, *argv], files


@settings(max_examples=300, deadline=timedelta(seconds=2), derandomize=True, database=None)
@given(command_lines())
def test_every_drawn_command_line_exits_0_1_or_2_without_a_traceback(line):
    argv, files = line
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in files.items():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            (Path(tmp) / name).write_bytes(text.encode(errors="surrogateescape"))
        argv = [str(Path(tmp) / arg) if arg in files else arg for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main([*argv, "--out", str(Path(tmp) / "report.json")])
            except SystemExit as exc:
                code = ("argparse", exc.code)
    assert code in (0, 1, 2, ("argparse", 2))
