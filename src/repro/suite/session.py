"""Shared campaign-session plumbing: lock, salvage, manifest, finalize.

Every campaign runner — the serial loop, the supervised pool, and each
shard supervisor of a sharded campaign — opens its output directory the
same way: acquire the :class:`CampaignLock`, salvage any packed
segments a crashed predecessor stranded, and load (or start) the
campaign manifest. And every runner that completes closes the same way:
fold remaining segments and rewrite the packed archive into its
canonical, name-sorted form, so the final ``campaign.calipack`` is a
pure function of its entry set — the property that makes serial,
supervised, and sharded runs of one campaign byte-identical — then
compact the manifest's ledger into its snapshot.

:class:`CampaignSession` keeps that protocol in one place so the
runners cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.suite.manifest import CampaignLock, CampaignManifest
from repro.suite.run_params import RunParams


@dataclass
class CampaignSession:
    """One runner's lease on a campaign output directory.

    ``open()`` acquires the lock (raising
    :class:`~repro.suite.errors.CampaignLockedError` if another campaign
    owns the directory), salvages stranded segments, and loads the
    manifest; ``finalize()`` is called only on a normally-completed run;
    ``close()`` always runs and releases the lock.
    """

    params: RunParams
    write_files: bool
    lock: CampaignLock | None = None
    manifest: CampaignManifest | None = None

    def open(self) -> "CampaignSession":
        params = self.params
        if self.write_files:
            self.lock = CampaignLock.acquire(params.output_dir)
        try:
            if self.write_files and params.pack:
                from repro.caliper.calipack import merge_segments

                # Salvage segments stranded by a crashed run (footer-less
                # segments go through the recovery scan).
                merge_segments(params.output_dir)
            if self.write_files or params.resume:
                self.manifest = CampaignManifest.load_or_create(
                    params.output_dir, params.fingerprint()
                )
        except BaseException:
            self.close()
            raise
        return self

    def finalize(self) -> None:
        """Seal a completed run: fold segments, compact the manifest.

        The packed archive is sealed by exactly one canonical rewrite:
        the segment merge when there were segments (it already writes
        the name-sorted form), else a canonicalize of the archive the
        serial loop appended to. Idempotent — an already-canonical
        archive rewrites to the same bytes and compaction replays to the
        same manifest — so a crash anywhere in here just repeats this
        step on resume.
        """
        if not self.write_files:
            return
        if self.params.pack:
            from repro.caliper.calipack import (
                ARCHIVE_NAME,
                canonicalize_archive,
                merge_segments,
            )

            if merge_segments(self.params.output_dir) is None:
                canonicalize_archive(
                    Path(self.params.output_dir) / ARCHIVE_NAME
                )
        if self.manifest is not None:
            self.manifest.compact()

    def close(self) -> None:
        if self.lock is not None:
            self.lock.release()
            self.lock = None

    def __enter__(self) -> "CampaignSession":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()
