"""Property tests of the CLI error contract for its input documents: the
--plan and --config files, --hp hyperparameter files, --data record lines
and --pipelines files.

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

import numpy as np
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


def _key_paths(doc, prefix=()):
    """The path of every object key in a JSON document, at any depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(doc, dict):
            yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _key_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    return copy


def _one_key_replaced(documents, values):
    """Documents with the value of one of their keys, at any depth, replaced."""
    return documents.flatmap(
        lambda doc: st.tuples(st.sampled_from(list(_key_paths(doc))), values).map(
            lambda pv: _replaced(doc, *pv)
        )
    )


def _hp_document(d, values, log_tau, w0):
    saliency = np.triu(np.reshape(values, (10, d)))
    return {
        "variant": "full",
        "d": d,
        "saliency": saliency.ravel().tolist(),
        "log_tau": log_tau,
        "w0": w0,
    }


VALID_HP = st.integers(1, 3).flatmap(
    lambda d: st.builds(
        _hp_document,
        st.just(d),
        st.lists(st.floats(-2, 2), min_size=10 * d, max_size=10 * d),
        st.floats(-1, 1),
        st.floats(-1, 1),
    )
)
# Numbers past the range of a float or of tau = exp(log_tau).
HUGE = st.sampled_from([1000.0, -1000.0, 10**400])
HP_DOCUMENTS = JSON_VALUES | VALID_HP | _one_key_replaced(VALID_HP, JSON_VALUES | HUGE)


def _record(pair, counts):
    return {
        "pipeline_id": "demo",
        "a": pair[0],
        "b": pair[1],
        "counts": counts,
        "episodes": sum(counts),
    }


OBJECT_DOCS = [
    {"colour": "red", "shape": "cross"},
    {"colour": "blue", "shape": "ring"},
    {"colour": "green", "shape": "plus"},
]
VALID_RECORDS = st.builds(
    _record,
    st.permutations(OBJECT_DOCS),
    st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any),
)
# Record lines for the one-pipeline header below.
RECORDS = (
    JSON_VALUES
    | VALID_RECORDS
    | _one_key_replaced(VALID_RECORDS, JSON_VALUES | HUGE)
)
HEADER = {"pipelines": {"demo": [{"goal": {"colour": "red", "shape": "cross"}}]}}
TINY_FIT = {"epochs": 1, "n_integration_steps": 5, "latent_dim": 2}
STAGES = st.fixed_dictionaries(
    {"goal": st.sampled_from(OBJECT_DOCS)},
    optional={"distractor": st.none() | st.sampled_from(OBJECT_DOCS)},
)
VALID_PIPELINES = st.builds(
    lambda spec: {"pipelines": spec},
    st.dictionaries(
        st.sampled_from(PIPELINE_IDS),
        st.lists(STAGES, min_size=1, max_size=2),
        min_size=1,
        max_size=2,
    ),
)
PIPELINE_DOCUMENTS = (
    JSON_VALUES | VALID_PIPELINES | _one_key_replaced(VALID_PIPELINES, JSON_VALUES)
)
TINY_GEN = {"episodes_per_stage": 1, "eval_episodes": 1}
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


@FUZZ
@given(hp=HP_DOCUMENTS)
def test_project_hp_documents_never_escape(data_file, hp):
    code, err = run_with_documents(
        ["project", "--data", str(data_file), "--pipeline", "p000"], [("--hp", hp)]
    )
    assert_error_contract(code, err)


@FUZZ
@given(records=st.lists(RECORDS, min_size=1, max_size=3))
def test_fit_record_lines_never_escape(records):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "prefs.jsonl"
        data.write_text("\n".join(json.dumps(doc) for doc in [HEADER, *records]))
        code, err = run_with_documents(
            ["fit", "--data", str(data)], [("--config", TINY_FIT)]
        )
    assert_error_contract(code, err)


@FUZZ
@given(pipelines=PIPELINE_DOCUMENTS)
def test_gen_data_pipelines_documents_never_escape(pipelines):
    code, err = run_with_documents(
        ["gen-data", "--max-pairs", "1"],
        [("--pipelines", pipelines), ("--config", TINY_GEN)],
    )
    assert_error_contract(code, err)
