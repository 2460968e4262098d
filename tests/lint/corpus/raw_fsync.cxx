// qrn-lint corpus: raw-fsync. A raw fsync/fdatasync outside the store's
// sync wrappers is a finding on the line of the call; the waiver sits on
// the line above. (Discarded seal receipts are the compiler's business:
// ShardWriter::seal is [[nodiscard]].)
void synced(int fd) {
  fsync(fd);  // finding: bypasses store::sync_file
}

void data_synced(int fd) {
  ::fdatasync(  // finding anchors here, the call's first line
      fd);
}

void waived(int fd) {
  // qrn-lint: allow(raw-fsync) corpus waiver case
  fsync(fd);
}
