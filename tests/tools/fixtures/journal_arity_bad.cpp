// Golden fixture: journal emits that skew from their registered schema.
// Analyzed as if at src/core/journal_arity_bad.cpp.
void record_run(obs::Journal& journal, const Values& values) {
  const obs::EventId round_event =
      journal.register_event("run.round", {"round", "norm"});
  stop_event_ = journal.register_event("run.stop", {"round", "converged"});
  journal.emit(round_event, {1.0, 0.5});       // two values: clean
  journal.emit(round_event, {1.0});            // line 8: one value
  journal.emit(stop_event_, {1.0, 0.5, 1.0});  // line 9: three values
  journal.emit(stop_event_, values);           // line 10: not a list
  journal.emit(elsewhere, {1.0});  // registered in another file: clean
}
