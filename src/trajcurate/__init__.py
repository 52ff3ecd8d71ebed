"""trajcurate: desk-scale synthetic robot-trajectory curation.

Generate diverse synthetic manipulation videos with pseudo-action labels,
and verify the labels by replaying them in a deterministic 2D simulator and
scoring motion consistency with a learned attentive probe. Filtering or
Best-of-N selection of the samples, and an imitation policy trained on the
curated mix, are not built yet (ROADMAP item 3).
"""

__version__ = "0.1.0"
