"""One task in a fresh interpreter.

    python perfbench/child.py ENTRY TASK_JSON TRACE ROUND SPANS_FILE

Imports ENTRY first (the parent measures setup as the time from spawning
this process to `imported`), then runs the task, timing it from after the
import to its return.  With TRACE=1 every wittkit module is imported and the
span wrappers are installed before the task's clock starts.  The last line
of stdout is one JSON object: the times, the payload, and for a traced task
the span summary; a traced task also appends its spans to SPANS_FILE.  A
task that raises is reported with exit code 1.
"""

import sys
import time

if __name__ == "__main__":
    entry = sys.argv[1]
    start_import = time.perf_counter()
    __import__(entry)
    imported = time.perf_counter()

    import json
    import pkgutil
    import traceback

    import wittkit

    task = json.loads(sys.argv[2])
    traced = sys.argv[3] == "1"
    record = {"imported": imported, "import_s": imported - start_import,
              "int_max_str_digits": sys.get_int_max_str_digits()}
    code = 0
    if task["kind"] != "probe":
        import spans
        import tasks

        tracer = installed = None
        if traced:
            for mod in pkgutil.iter_modules(wittkit.__path__):
                __import__(f"wittkit.{mod.name}")
            tracer = spans.Tracer(int(sys.argv[4]))
            installed = spans.install(tracer)
        t0 = time.perf_counter()
        try:
            result = tasks.run(task)
        except Exception:  # a failing task is reported, not fatal
            record["error"] = traceback.format_exc(limit=4)
            code = 1
        t1 = time.perf_counter()
        if installed is not None:
            installed.remove()
        record["task_s"] = t1 - t0
        if code == 0:
            record["payload"] = tasks.payload(task, result)
        if tracer is not None:
            record["trace"] = tracer.summary()
            tracer.write(sys.argv[5], task["name"])
    sys.stdout.write(json.dumps(record) + "\n")
    sys.exit(code)
