"""Retained naive implementations the exactness gates compare against."""
