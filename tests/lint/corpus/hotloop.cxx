// qrn-lint corpus: hotloop-alloc. The markers bracket a loop body: a
// container declared between them allocates per iteration; one hoisted
// above the begin marker is a reused scratch buffer and clean.
void per_iteration() {
  for (int i = 0; i < 100; ++i) {
    // qrn:hotloop(begin)
    std::vector<double> row;  // finding: fresh allocation every pass
    use(row);
    // qrn:hotloop(end)
  }
}

void hoisted() {
  std::vector<double> scratch;  // clean: lives across iterations
  for (int i = 0; i < 100; ++i) {
    // qrn:hotloop(begin)
    scratch.clear();
    use(scratch);
    // qrn:hotloop(end)
  }
}

void waived() {
  for (int i = 0; i < 100; ++i) {
    // qrn:hotloop(begin)
    std::string cell;  // qrn-lint: allow(hotloop-alloc) corpus waiver case
    use(cell);
    // qrn:hotloop(end)
  }
}
