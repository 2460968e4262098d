// The lexer. Each new expression below that is a finding proves the
// literal or splice before it was lexed to its true end; each that is
// not proves a comment or literal hid it.
#include <new>

void lexed() {
    // a line comment continued by a backslash \
    int* in_comment = new int(0);
    int* spliced = ne\
w int(1);
    const char* raw = R"x(delete p; )" new int; )x";
    const char* escaped = "new \" delete";
    const char* url = "https://example.org"; int* after_url = new int(3);
    int LR = 4;
    int* after_lookalike = new int(LR);
    char quote = '\'';
    int* after_char = new int(quote);
    int one_zero = 1'0;
    int* after_digits = new int(one_zero + 0xFF'FF);
    auto wide = L'\'';
    int* after_wide = new int(static_cast<int>(wide));
    const char8_t* prefixed = u8R"(delete)";
    /* a block comment // new int
       spanning lines: delete */
    int* after_block = new int(2);
}
