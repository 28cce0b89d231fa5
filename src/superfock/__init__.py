"""Exact computer algebra for free-field superconformal structures and
order-two twisted modules."""
