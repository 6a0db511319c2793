"""README's "Library use" snippets run as written, with fewer epochs, and the
resumed run of the second one is the train() call of the first, bit for bit."""
import re

import numpy as np

from conftest import REPO
from regrobust.nn import params_to_vector

# Each is made exactly once: 4 epochs, cut after the first.
CUTS = {"epochs=1000": "epochs=4", "run_epochs(state, 250)": "run_epochs(state, 1)",
        "run_epochs(state, 750)": "run_epochs(state, 3)"}


def library_snippets() -> list:
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_snippets_run_and_the_resumed_run_is_train(monkeypatch, capsys):
    first, second = library_snippets()
    for old, new in CUTS.items():
        assert (first + second).count(old) == 1, old
        first, second = first.replace(old, new), second.replace(old, new)
    monkeypatch.chdir(REPO)  # the snippets read data/boston.csv
    trained = {}
    exec(first, trained)
    resumed = dict(trained)
    exec(second, resumed)
    assert np.isfinite(float(capsys.readouterr().out.split()[0]))  # the PGD test MSE
    state = resumed["state"]
    assert state.epoch == len(trained["history"]) == 4
    assert resumed["resumed"] == trained["history"]
    assert np.array_equal(state.theta, params_to_vector(trained["net"]))
