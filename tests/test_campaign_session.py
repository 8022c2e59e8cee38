"""One bookkeeping path for every campaign loop.

The serial loop, the supervised pool and the shard coordinator skip,
record and return through :class:`~repro.suite.session.CampaignSession`,
so one campaign run each way must leave the same books: the same resume
skips, the same compacted manifest (bar measured cell times) and the
same archive bytes. An in-memory resume reads the manifest without
writing to the campaign directory.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.caliper import calipack
from repro.faults import ChaosCrash, Fault, FaultPlan, install
from repro.suite import MANIFEST_NAME, RunParams, SuiteExecutor


def _params(outdir, **overrides) -> RunParams:
    defaults = dict(
        problem_size=1024,
        machines=("SPR-DDR",),
        variants=("Base_Seq", "RAJA_Seq"),
        kernels=("Basic_DAXPY", "Stream_TRIAD"),
        trials=2,
        pack=True,
        output_dir=str(outdir),
        retry_base_delay=0.0,
        retry_jitter=0.0,
    )
    defaults.update(overrides)
    return RunParams(**defaults)


def _books(outdir) -> dict:
    """The compacted manifest, directory-relative, without cell times."""
    text = (outdir / MANIFEST_NAME).read_text()
    manifest = json.loads(text.replace(str(outdir), "<campaign>"))
    for entry in manifest["cells"].values():
        entry.pop("elapsed_s", None)
    return manifest


def _tree(directory) -> dict[str, bytes]:
    return {
        str(path.relative_to(directory)): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_serial_supervised_and_sharded_runs_keep_identical_books(tmp_path):
    modes = {"serial": {}, "supervised": {"workers": 2}, "sharded": {"shards": 2}}
    books, archives = {}, {}
    for mode, overrides in modes.items():
        outdir = tmp_path / mode
        params = _params(outdir, **overrides)
        assert SuiteExecutor(params).run(write_files=True).report.clean
        resumed = SuiteExecutor(dataclasses.replace(params, resume=True)).run(
            write_files=True
        )
        assert resumed.report.cell_counts() == {"skipped": 4}, mode
        assert resumed.report.records == [], mode
        books[mode] = _books(outdir)
        archives[mode] = (outdir / calipack.ARCHIVE_NAME).read_bytes()
    assert len(books["serial"]["cells"]) == 4
    assert books["supervised"] == books["serial"]
    assert books["sharded"] == books["serial"]
    assert archives["supervised"] == archives["serial"]
    assert archives["sharded"] == archives["serial"]


def test_in_memory_resume_leaves_the_campaign_directory_untouched(tmp_path):
    params = _params(tmp_path)
    install(FaultPlan([Fault(site="executor.post-cell", hit=2)]))
    try:
        with pytest.raises(ChaosCrash):
            SuiteExecutor(params).run(write_files=True)
    finally:
        install(None)
    # The crash left its two records in the ledger alone.
    assert (tmp_path / "campaign_manifest.ledger").exists()
    assert not (tmp_path / MANIFEST_NAME).exists()
    before = _tree(tmp_path)

    result = SuiteExecutor(dataclasses.replace(params, resume=True)).run(
        write_files=False
    )

    assert result.report.cell_counts() == {"skipped": 2, "ok": 2}
    assert len(result.profiles) == 2
    assert _tree(tmp_path) == before
