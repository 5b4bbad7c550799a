// Golden fixture: a consumer recomputing the histogram bucket grid.
// Analyzed as if at src/schemes/histogram_bounds_bad.cpp, outside
// src/obs/ where the layout constants are private.
double top_edge() {
  // kMaxExponent named in a comment: clean
  return std::ldexp(1.0, kMaxExponent);  // line 6: layout constant
}

double octave_width(int k) {
  return obs::HistogramLayout::bucket_upper_bound(k) -
         obs::HistogramLayout::bucket_lower_bound(k);  // the API: clean
}
