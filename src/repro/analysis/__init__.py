"""Analytical reproductions: committee sizing (Figure 3), BA* step
counts (section 7 efficiency), and gossip-graph connectivity (section 8.4)."""
