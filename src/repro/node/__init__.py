"""The Algorand user agent: proposal, round loop, recovery, catch-up."""
