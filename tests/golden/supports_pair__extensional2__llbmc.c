/* supports_pair: extensional version 2 (if, logical, grouping=yes) */
#include <assert.h>
#include <stdlib.h>

void __llbmc_assume(int condition);
int __llbmc_nondef_int(void);

int main(void) {
    int a, b;
    /* declare variables nondeterministic */
    a = __llbmc_nondef_int();
    b = __llbmc_nondef_int();
    /* enforce variable domains */
    __llbmc_assume(a>=0 && a<=1);
    __llbmc_assume(b>=0 && b<=1);
    /* constraints */
    if (((a==1 && b==0) || (a==0 && b==1))); else exit(0);
    /* CSP is satisfiable */
    assert(0);
    return 0;
}
