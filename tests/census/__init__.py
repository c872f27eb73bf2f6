"""The code census: its start-up hook, driver and list (see run.py)."""
