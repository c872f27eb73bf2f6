"""Ledger substrate: transactions, accounts, blocks, chains, storage."""
