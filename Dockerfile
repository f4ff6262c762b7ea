# Containerized `repro serve`: the long-lived yield-analysis service.
#
#   docker build -t repro-serve .
#   docker run --rm -p 8000:8000 -v repro-store:/data repro-serve
#
# The store volume (/data) lets restarts warm-start compiled structures
# from disk instead of rebuilding; drop the volume for a stateless run.
FROM python:3.11-slim

WORKDIR /opt/repro
COPY pyproject.toml setup.py ./
COPY src ./src
RUN pip install --no-cache-dir numpy . && rm -rf src pyproject.toml setup.py

RUN useradd --system --create-home repro \
    && mkdir -p /data/store /data/cache \
    && chown -R repro /data
USER repro

EXPOSE 8000
HEALTHCHECK --interval=10s --timeout=3s --start-period=15s --retries=3 \
    CMD ["python", "-c", "import urllib.request,sys; sys.exit(0 if urllib.request.urlopen('http://127.0.0.1:8000/healthz', timeout=2).status == 200 else 1)"]

# SIGTERM (docker stop) triggers the server's graceful drain.  The server
# is one process: its --http-threads executor builds the structures of
# each request.
CMD ["repro", "serve", "--host", "0.0.0.0", "--port", "8000", \
     "--store-dir", "/data/store"]
