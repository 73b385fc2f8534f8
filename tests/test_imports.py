"""Where scipy is loaded: only by the steps that need a Schur form.

Each check runs in a fresh interpreter, because this test process has
imported scipy long before.
"""

import json
import subprocess
import sys
import textwrap

TWO_TERM_AND_VERIFY = """
    import os, sys, tempfile
    import numpy as np
    from matwaring import cli, freealg, serialize, waring
    from matwaring.config import DEFAULT_TOLS

    f = freealg.parse("[X1,X2]")
    rng = np.random.default_rng(7)
    A = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
    A -= np.trace(A) / 7 * np.eye(7)
    cert = waring.two_term_decompose(f, A)
    text = serialize.dumps_canonical(
        serialize.certificate_to_json(cert, DEFAULT_TOLS))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cert.json")
        with open(path, "w") as fh:
            fh.write(text)
        assert cli.main(["verify", path]) == 0
    assert freealg.classify(f, 3).is_identity_or_central is False
    waring.image_search(f, 4, waring.GOAL_MULTIPLICITY_HALF)
"""

FOUR_TERM = """
    import numpy as np
    from matwaring import freealg, waring

    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    A -= np.trace(A) / 6 * np.eye(6)
    waring.waring_express(freealg.parse("[X1,X2]"), A)
"""


def scipy_modules_after(code):
    """The scipy modules loaded once code has run in a fresh interpreter."""
    report = ("\nprint(json.dumps(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import json, sys\n" + textwrap.dedent(code) + report],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_two_term_route_and_verify_never_load_scipy():
    assert scipy_modules_after(TWO_TERM_AND_VERIFY) == []


def test_four_term_route_loads_scipy_for_its_schur_form():
    assert "scipy.linalg" in scipy_modules_after(FOUR_TERM)
