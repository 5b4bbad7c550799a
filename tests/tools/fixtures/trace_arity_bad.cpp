// Golden fixture: trace rows whose cell count skews from the schema.
// Analyzed as if at src/obs/trace_arity_bad.cpp.
std::vector<std::string> probe_trace_columns() {
  return {"round", "norm", "gap"};
}

void write_rows(Sink& trace, Writer& writer, const Row& cells) {
  trace.record({1, 0.5, 0.25});          // three cells: clean
  trace.record({1, 0.5});                // line 9: two cells
  writer.add_row({"a", f(b, c), {d}});  // nested lists count once: clean
  writer.add_row(cells);                 // line 11: not a braced list
  // nashlb-analyzer: allow(trace-arity) -- fixture: sized from the schema
  writer.add_row(cells);
}
