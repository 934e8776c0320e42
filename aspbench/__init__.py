"""Benchmark of the aspseek_ray crawl, index and searchd paths; see NOTES.md."""
