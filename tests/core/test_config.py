"""DisTAConfig: one table row per knob, and every route to a row agrees.

For each row the table-driven tests check that its launch extra, its
environment variable (where one exists) and its keyword argument build
equal configs; that a clean environment yields the documented default;
and that a bad value fails when the config is built, always with
``ConfigError``.
"""

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.config import AgentOptions, DisTAConfig
from repro.core.launch import launch_cluster
from repro.errors import ConfigError
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode

ROWS = dataclasses.fields(DisTAConfig)
ENV_VARS = [row.metadata["env"] for row in ROWS if row.metadata["env"]]
API_DOC = Path(__file__).resolve().parents[2] / "docs" / "API.md"

#: field → (launch-extra text, the keyword value it spells).
SAMPLES = {
    "cache_enabled": ("off", False),
    "byte_granularity": ("message", False),
    "wrapper_types": ("1+3", frozenset({1, 3})),
    "request_deadline_s": ("2.5", 2.5),
    "source_fraction": ("0.25", 0.25),
    "lineage": ("on", True),
    "taint_map_durable": ("on", True),
}

#: The defaults the docs/API.md table documents (clean environment).
DOCUMENTED_DEFAULTS = {
    "cache_enabled": True,
    "byte_granularity": True,
    "wrapper_types": frozenset({1, 2, 3}),
    "request_deadline_s": 30.0,
    "source_fraction": 1.0,
    "lineage": False,
    "taint_map_durable": False,
}

#: field → launch-extra text that must be refused.
BAD_TEXT = {
    "cache_enabled": "maybe",
    "byte_granularity": "word",
    "wrapper_types": "1+4",
    "request_deadline_s": "soon",
    "source_fraction": "1.5",
    "lineage": "maybe",
    "taint_map_durable": "maybe",
}

#: field → keyword value that must be refused (rows with a range).
BAD_KEYWORD = {
    "wrapper_types": frozenset({4}),
    "source_fraction": -0.1,
}


@pytest.fixture()
def clean_env(monkeypatch):
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)


def test_every_row_has_test_data_and_a_distinct_key():
    names = {row.name for row in ROWS}
    assert names == set(SAMPLES) == set(DOCUMENTED_DEFAULTS) == set(BAD_TEXT)
    extras = [row.metadata["extra"] for row in ROWS]
    assert len(set(extras)) == len(extras)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row.name)
class TestConfigTable:
    def test_routes_agree(self, row, clean_env, monkeypatch):
        text, value = SAMPLES[row.name]
        extra, env = row.metadata["extra"], row.metadata["env"]
        by_keyword = DisTAConfig(**{row.name: value})
        assert getattr(by_keyword, row.name) == value
        assert by_keyword != DisTAConfig()
        assert DisTAConfig.from_extras({extra: text}) == by_keyword
        assert launch_cluster(Mode.DISTA, f"{extra}={text}").config == by_keyword
        if env:
            monkeypatch.setenv(env, text)
            assert DisTAConfig() == by_keyword
            # The environment only feeds the default: an explicit value,
            # None ("unlimited"/"no deadline") included, always wins.
            assert getattr(DisTAConfig(**{row.name: None}), row.name) is None

    def test_clean_environment_gives_documented_default(self, row, clean_env):
        assert getattr(DisTAConfig(), row.name) == DOCUMENTED_DEFAULTS[row.name]

    def test_bad_value_fails_at_construction(self, row, clean_env, monkeypatch):
        extra, env = row.metadata["extra"], row.metadata["env"]
        with pytest.raises(ConfigError):
            DisTAConfig.from_extras({extra: BAD_TEXT[row.name]})
        if row.name in BAD_KEYWORD:
            with pytest.raises(ConfigError, match=row.name):
                DisTAConfig(**{row.name: BAD_KEYWORD[row.name]})
        if env:
            monkeypatch.setenv(env, BAD_TEXT[row.name])
            with pytest.raises(ConfigError):
                DisTAConfig()

    def test_documented_in_the_api_table(self, row):
        key = f"`{row.metadata['extra']}=`"
        lines = [
            line
            for line in API_DOC.read_text(encoding="utf-8").splitlines()
            if line.startswith(f"| `{row.name}` |")
        ]
        assert len(lines) == 1, f"docs/API.md has no table row for {row.name}"
        assert key in lines[0]
        if row.metadata["env"]:
            assert f"`{row.metadata['env']}`" in lines[0]


@pytest.mark.parametrize(
    "key",
    [
        "overheadBudget",
        "overheadBugdet",
        "taintMap",
        "gidCacheCapacity",
        "gidCacheAdmission",
        "budgetWarmStart",
        "coalesceBackpressure",
        "coalesceMaxPending",
        "taintMapShards",
        "taintMapMinShards",
        "taintMapMaxShards",
        "taintMapSnapshotEvery",
    ],
)
def test_unknown_launch_extra_is_refused(key):
    with pytest.raises(ConfigError, match=re.escape(key)) as caught:
        launch_cluster(Mode.DISTA, f"{key}=1")
    # The error lists the valid keys, so the typo is easy to fix.
    assert "taintSourceFraction" in str(caught.value)


def test_agent_options_keep_arbitrary_pairs():
    """Only DisTAConfig.from_extras judges the extras; parsing the agent
    argument stays permissive."""
    options = AgentOptions.parse("taintSources=s,verbose=1")
    assert options.extras == {"verbose": "1"}
    with pytest.raises(ConfigError, match="verbose"):
        DisTAConfig.from_extras(options.extras)


def test_cluster_applies_registry_rows_to_every_node():
    config = DisTAConfig(source_fraction=0.5)
    cluster = Cluster(Mode.DISTA, config=config)
    node = cluster.add_node("n1")
    assert node.registry.source_fraction == 0.5
