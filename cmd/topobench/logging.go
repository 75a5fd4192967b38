package main

import (
	"flag"
	"log/slog"
	"os"
)

// logger is the process-wide structured logger (log/slog), writing to
// stderr so command output (TSV, JSON) stays clean on stdout. It starts
// as a human-readable text logger; subcommands that take -log-format
// swap in the requested handler right after flag parsing, before any
// log line is emitted.
var logger = newLogger("text")

// newLogger builds a stderr slog.Logger for the given format ("text" or
// "json"; anything else falls back to text so a typo degrades to
// readable logs, never to silence).
func newLogger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// logFormatFlag registers the -log-format flag on a subcommand's flag
// set; call applyLogFormat with the parsed value after fs.Parse.
func logFormatFlag(fs *flag.FlagSet) *string {
	return fs.String("log-format", "text", "structured log format: text or json")
}

// applyLogFormat installs the chosen log handler process-wide.
func applyLogFormat(format string) {
	logger = newLogger(format)
}

// logStats logs one component's counters on one line: the key-value
// pairs in args, then every family its Metrics method emits, keyed by
// the family's /metrics name (without the topobench_ prefix).
func logStats(msg string, metrics func(emit func(name, help string, v int64)), args ...any) {
	metrics(func(name, _ string, v int64) { args = append(args, name, v) })
	logger.Info(msg, args...)
}
