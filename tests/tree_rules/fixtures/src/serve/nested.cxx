// dispatcher-no-block: regions do not nest. Finding.
void dispatch() {
    // qrn:dispatcher(begin)
    // qrn:dispatcher(begin)
    // qrn:dispatcher(end)
}
