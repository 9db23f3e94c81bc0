"""Property test of the CLI error contract for the --plan and --config files.

Any JSON document, of any shape, must give exit 0 or exit 1 with a single
``error:`` line, never a traceback. Numbers for known keys stay small so a
document that happens to be valid fits quickly and cannot diverge.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import synthetic_dataset
from goalgen.cli import main
from goalgen.dataset import save_dataset

CONFIG_KEYS = (
    "learning_rate",
    "batch_size",
    "epochs",
    "adam_beta1",
    "adam_beta2",
    "n_integration_steps",
    "gradient_mode",
    "latent_dim",
    "eval_episodes",
)
PIPELINE_IDS = ("p000", "p001", "p002", "p003", "nope")

LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats(-0.05, 0.05)
    | st.sampled_from([math.nan, math.inf, -math.inf])
    | st.text(max_size=4)
    | st.sampled_from(["adjoint", "full", *PIPELINE_IDS])
)
JSON_VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
CONFIGS = JSON_VALUES | st.fixed_dictionaries(
    {}, optional={key: JSON_VALUES for key in CONFIG_KEYS}
)
# Half of the values for known keys have the right type, so valid plans
# and the k-fold and transfer runs behind them are reached too.
COUNTS = st.integers(-1, 4) | JSON_VALUES
FILTERS = JSON_VALUES | st.fixed_dictionaries(
    {},
    optional={
        "stage_count": COUNTS,
        "has_distractor": st.booleans() | JSON_VALUES,
        "ids": st.lists(st.sampled_from(PIPELINE_IDS), max_size=3) | JSON_VALUES,
    },
)
PLANS = (
    JSON_VALUES
    | st.fixed_dictionaries(
        {}, optional={"k": COUNTS, "seed": COUNTS, "train": FILTERS, "eval": FILTERS}
    )
    | st.fixed_dictionaries({"k": st.integers(1, 5)}, optional={"seed": COUNTS})
    | st.fixed_dictionaries({"train": FILTERS, "eval": FILTERS})
)
FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    ds, _ = synthetic_dataset(seed=40, n_pipelines=4, n_records=12)
    path = tmp_path_factory.mktemp("fuzz") / "prefs.jsonl"
    save_dataset(ds, path)
    return path


def run_with_documents(argv, documents):
    """Write each (flag, document) to a file, run the CLI, return (code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for flag, document in documents:
            path = tmp / f"{flag.strip('-')}.json"
            path.write_text(json.dumps(document))
            argv = [*argv, flag, str(path)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(tmp / "out")])
    return code, err.getvalue()


def assert_error_contract(code, err):
    assert code in (0, 1), err
    if code == 1:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@FUZZ
@given(config=CONFIGS)
def test_fit_config_documents_never_escape(data_file, config):
    code, err = run_with_documents(
        ["fit", "--data", str(data_file)], [("--config", config)]
    )
    assert_error_contract(code, err)


@FUZZ
@given(plan=PLANS, config=st.none() | CONFIGS)
def test_eval_plan_and_config_documents_never_escape(data_file, plan, config):
    documents = [("--plan", plan)]
    if config is not None:
        documents.append(("--config", config))
    code, err = run_with_documents(["eval", "--data", str(data_file)], documents)
    assert_error_contract(code, err)
