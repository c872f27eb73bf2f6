"""BA*: the committee-based Byzantine agreement protocol (paper section 7)."""
