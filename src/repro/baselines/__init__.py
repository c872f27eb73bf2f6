"""Baseline systems the paper compares against (Bitcoin / Nakamoto PoW,
plus the section 2 related-system reference points)."""
