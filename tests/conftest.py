from hypothesis import settings

# Deeper property runs for CI: python -m pytest tests --hypothesis-profile=ci
settings.register_profile("ci", max_examples=500)
