"""Experiment harness regenerating every table and figure of the paper."""
