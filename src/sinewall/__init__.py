"""Exact engine for sine-power wall-crossing of genus-indexed curve counts.

The package namespace holds no names of its own: each is imported from
its defining module (`sinewall.series`, `sinewall.partitions`,
`sinewall.hodge`, `sinewall.wallcross`, `sinewall.gv`, `sinewall.cli`),
so a CLI call loads only the modules `sinewall.cli` imports.
"""

__version__ = "0.1.0"
