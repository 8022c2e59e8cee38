"""Index pushdown evaluates one mask over all entries, and doubt keeps.

The ``--where`` predicate is evaluated once over n-length attr columns
built from the archive index. An entry whose referenced attr is
nonscalar is kept; an evaluation that raises keeps every entry. The
exact filter after composition decides the answer, so the pushed-down
result must equal the eager compose-then-filter result, and no entry
the exact filter keeps may have been skipped unparsed.
"""

import numpy as np
import pytest

from repro.caliper import calipack
from repro.dataframe import col
from repro.thicket import Thicket
from tests.test_query_pushdown import make_profile

N_PROFILES = 8
NONSCALAR = "p2.cali"


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """``trial`` cycles 0..3; p2's ``variant`` is a list, which the
    index stores as the nonscalar sentinel."""
    path = tmp_path_factory.mktemp("campaign") / "campaign.calipack"
    with calipack.CalipackWriter(path) as writer:
        for i in range(N_PROFILES):
            profile = make_profile(i, {"trial": i % 4})
            if f"p{i}.cali" == NONSCALAR:
                profile.globals["variant"] = ["v1", "v2"]
            writer.append_profile(f"p{i}.cali", profile)
    return path


@pytest.fixture
def parsed(monkeypatch):
    """Labels of every payload the composition parses."""
    import repro.thicket.ingest as ingest_mod

    labels: list[str] = []
    orig = ingest_mod.parse_cali_payload

    def recording(data, label):
        labels.append(label)
        return orig(data, label)

    monkeypatch.setattr(ingest_mod, "parse_cali_payload", recording)
    return labels


PREDICATES = {
    # the nonscalar entry cannot be judged by the index
    "nonscalar": col("variant") == "v1",
    # 1 / 0 raises on the index's Python ints (trial 0) but is inf on
    # the composed int64 column, so only the index evaluation raises
    "raises": (1 / col("trial")) < 0.5,
    "both": (col("variant") == "v1") | (col("trial") == 3),
}


@pytest.mark.parametrize("name", list(PREDICATES))
def test_pushdown_equals_eager_and_skips_no_kept_entry(archive, parsed, name):
    expr = PREDICATES[name]
    with np.errstate(divide="ignore"):
        eager = Thicket.from_caliperreader(str(archive)).filter_metadata(expr)
        parsed.clear()
        pushed = Thicket.from_caliperreader(str(archive), where=expr)
    assert pushed.metadata.equals(eager.metadata)
    assert pushed.dataframe.equals(eager.dataframe)
    assert len(parsed) >= eager.metadata.nrows
    if "variant" in expr.references():
        assert any(label.endswith(NONSCALAR) for label in parsed)
    if name == "raises":
        assert len(parsed) == N_PROFILES  # a raising evaluation keeps all


def test_a_mask_that_rejects_entries_skips_their_parses(archive, parsed):
    """v1 entries are p1, p4, p7; the nonscalar p2 is kept as doubt."""
    parsed.clear()
    Thicket.from_caliperreader(str(archive), where=col("variant") == "v1")
    assert sorted(label.rsplit("::", 1)[-1] for label in parsed) == [
        "p1.cali", "p2.cali", "p4.cali", "p7.cali",
    ]
