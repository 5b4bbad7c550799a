// Golden fixture: the allocating best-reply wrappers in a hot-loop file.
// Analyzed as if at src/core/dynamics.cpp, where the wrappers are banned
// outright, not only inside the hot set.
struct Reply {};
struct Workspace {};
Reply best_reply(int user);  // a declaration is not a call: clean

Reply seed_reply(int user) {
  return best_reply(user);  // line 9: wrapper in a hot-loop file
}

void move_into(int user, Workspace& ws) {
  best_reply_into(user, ws);  // the _into variant: clean
  double* shares = waterfill_sqrt(user);  // line 14: here in an _into body
  (void)shares;
}

Reply audit_reply(int user) {
  // nashlb-analyzer: allow(hot-path-alloc) -- fixture: once per solve
  return best_reply(user);
}
