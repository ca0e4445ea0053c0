"""What a shell call imports: `import padicdyn.cli` loads only what every
subcommand needs.

No value class generates its methods at import (`dataclasses`, and the
`inspect` it pulls in), and the Gibbs and symbolic layers load on first use.
Each check runs in a fresh interpreter without `site`, so only padicdyn's own
imports are seen.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import padicdyn

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name of the package, the Gibbs and symbolic ones served on first use
EXPORTS = (
    "ATTRACTING", "Ball", "BasinStatus", "BranchError", "CayleyTree",
    "CompatibilityReport", "ConsistencyError", "Couplings", "DivisionByZero",
    "DomainError", "EscapeError", "FixedPointReport", "GibbsField", "INDIFFERENT",
    "LengthMismatch", "MapParams", "NoConvergence", "NoValidPlacement",
    "NotAFixedPoint", "NotASquare", "PadicError", "PadicNumber",
    "PlacementCandidate", "PoleError", "PrecisionExhausted", "PrimeContext",
    "REPELLING", "RepellerGeometry", "VerificationError", "ZeroInput",
    "ZeroPartitionFunction", "all_words", "analyze", "basin_status",
    "check_compatibility", "check_word", "classify", "diagonal_field_from_orbit",
    "diff_valuation", "discriminant", "eq_to_precision", "errors", "eval_f",
    "eval_g", "eval_k", "exp_p", "find_x0", "fixedpoints", "gibbs", "in_Ep",
    "is_unit", "k_membership", "log_p", "maps", "norm_diff", "norm_str", "padic",
    "parse_padic", "partition_fn", "periodic_field_from_orbit", "repelling_roots", "solve_7_11", "sqrt_both", "sqrt_exists", "symbolic",
    "to_json", "verify_lemma_3_4",
)

WATCHED = ("dataclasses", "inspect", "padicdyn.gibbs")


def fresh(code: str):
    """Run code in a new interpreter without site and return what it prints
    last, as JSON."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_cli_import_leaves_out_code_generation_and_the_gibbs_layer():
    loaded = fresh(f"""
import json, sys
import padicdyn.cli
print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))
""")
    assert loaded == []


def test_the_gibbs_layer_loads_on_the_first_gibbs_call():
    loaded = fresh(f"""
import contextlib, io, json, sys
from padicdyn import cli
seen = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["fixed-points", "--p", "13", "--a", "170", "--b", "14"],
                 ["periodic", "--p", "13", "--a", "170", "--b", "14", "--word", "1,2"],
                 ["gibbs", "--p", "5", "solve", "--J", "5/1", "--J1", "5/1"]):
        code = cli.run(argv)
        seen.append([code, [m for m in {WATCHED!r} if m in sys.modules]])
print(json.dumps(seen))
""")
    assert loaded == [[0, []], [0, []], [0, ["padicdyn.gibbs"]]]


def test_the_symbolic_layer_loads_on_the_first_call_that_runs_it():
    loaded = fresh("""
import contextlib, io, json, sys
from padicdyn import cli
pair = ["--p", "13", "--a", "170", "--b", "14"]
seen = []
def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(list(argv))
    seen.append([code, "padicdyn.symbolic" in sys.modules])
    return out.getvalue()
x0 = json.loads(call("fixed-points", *pair))["x0"]
call("classify", *pair, "--x", f"{x0['valuation']};" + ",".join(map(str, x0["digits"])))
call("orbit", *pair, "--x", "2/3")
call("basin", *pair, "--x", "2/3")
print(json.dumps(seen))
""")
    assert loaded == [[0, False], [0, False], [0, False], [0, True]]


def test_every_export_resolves_and_is_listed():
    listed, missing, loaded = fresh(f"""
import json, sys
import padicdyn
listed = sorted(set({EXPORTS!r}) - set(dir(padicdyn)))
loaded = [m for m in ("padicdyn.gibbs", "padicdyn.symbolic") if m in sys.modules]
names, star = {{}}, {{}}
exec("from padicdyn import " + ", ".join({EXPORTS!r}), names)
exec("from padicdyn import *", star)
print(json.dumps([listed, sorted(set({EXPORTS!r}) - (set(names) & set(star))), loaded]))
""")
    # dir lists the Gibbs and symbolic names before either layer loads
    assert (listed, missing, loaded) == ([], [], [])
    assert not hasattr(padicdyn, "no_such_name")
