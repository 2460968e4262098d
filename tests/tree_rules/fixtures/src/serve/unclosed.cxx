// dispatcher-no-block: a region that never closes would stop being
// checked. Finding.
void dispatch() {
    // qrn:dispatcher(begin)
}
