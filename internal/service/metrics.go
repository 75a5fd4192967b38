package service

import (
	"fmt"
	"io"
	"strings"
)

// emitMetric writes one single-sample metric family in Prometheus text
// exposition format: HELP, TYPE, sample. The type is derived from the
// conventional `_total` counter suffix. Each component declares its
// families, help text included, in a Metrics method that calls its emit
// argument once per family; handleMetrics passes emitMetric.
func emitMetric(w io.Writer, name, help string, v int64) {
	full := "topobench_" + name
	typ := "gauge"
	if strings.HasSuffix(name, "_total") {
		typ = "counter"
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", full, help, full, typ, full, v)
}
