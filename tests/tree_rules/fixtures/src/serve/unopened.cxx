// dispatcher-no-block: an end marker without a begin. Finding.
void dispatch() {
    // qrn:dispatcher(end)
}
