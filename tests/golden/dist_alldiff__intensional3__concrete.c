/* replay driver: a program reads its values from one assignment at a time;
   a failed assume or exit rejects the assignment, and assert(0) reaches */
#include <setjmp.h>
#include <stdio.h>

int abs(int);
static jmp_buf csp2c_jump;
static const int *csp2c_values;
static int csp2c_left, csp2c_verdict;

static void csp2c_exit(void) { longjmp(csp2c_jump, 1); }
static void csp2c_reached(void) { csp2c_verdict = 1; longjmp(csp2c_jump, 1); }
/* a read past the assignment rejects it, and csp2c_drive reports the read */
static int csp2c_next(void) { if (--csp2c_left < 0) csp2c_exit(); return *csp2c_values++; }
int __llbmc_nondef_int(void) { return csp2c_next(); }
void __llbmc_assume(int condition) { if (!condition) csp2c_exit(); }
void klee_assume(int condition) { if (!condition) csp2c_exit(); }
void klee_make_symbolic(void *addr, size_t nbytes, const char *name) {
    (void)nbytes, (void)name, *(int *)addr = csp2c_next();
}

/* run one version on `values`; csp2c_verdict is 1 when it reaches assert(0).
   A function of its own, so that no local of csp2c_drive lives across setjmp */
static void csp2c_run(int (*version)(void), const int *values, int arity) {
    csp2c_values = values;
    csp2c_left = arity;
    csp2c_verdict = 0;
    if (setjmp(csp2c_jump) == 0) version();
}

/* Read whitespace-separated assignments from stdin and print one line per
   assignment holding one 0/1 verdict digit per version, in order; exit 2 on
   input that does not end after a whole assignment. A version that reads
   more or fewer than `arity` values exits 3. stdout is unbuffered, so a
   run that dies keeps every digit printed before: its whole lines count
   the assignments done, and the digits of its last line the versions. */
static int csp2c_drive(int (*const versions[])(void), int count, int arity) {
    int values[arity], i, k;
    setvbuf(stdout, NULL, _IONBF, 0);
    for (;;) {
        for (i = 0; i < arity; i++)
            if (scanf("%d", &values[i]) != 1)
                return i == 0 && feof(stdin) ? 0 : 2;
        for (k = 0; k < count; k++) {
            csp2c_run(versions[k], values, arity);
            if (csp2c_left != 0) {
                fprintf(stderr, "csp2c_main_%d reads %d values, not %d\n", k, arity - csp2c_left, arity);
                return 3;
            }
            putchar('0' + csp2c_verdict);
        }
        putchar('\n');
    }
}

#define exit(status) csp2c_exit()
#define assert(condition) ((condition) ? (void)0 : csp2c_reached())
#define main csp2c_main_0
#line 1 "dist_alldiff__intensional3__klee.c"
/* dist_alldiff: intensional version 3 (if, logical, grouping=all) */




#define dist(a,b) abs((a)-(b))

int main(void) {
    int x0, x1, x2, y0, y1;
    /* declare variables symbolic */
    klee_make_symbolic(&x0,sizeof(x0),"x0");
    klee_make_symbolic(&x1,sizeof(x1),"x1");
    klee_make_symbolic(&x2,sizeof(x2),"x2");
    klee_make_symbolic(&y0,sizeof(y0),"y0");
    klee_make_symbolic(&y1,sizeof(y1),"y1");
    /* enforce variable domains */
    klee_assume(x0>=0 && x0<=2);
    klee_assume(x1>=0 && x1<=2);
    klee_assume(x2>=0 && x2<=2);
    klee_assume(y0>=0 && y0<=2);
    klee_assume(y1>=0 && y1<=2);
    /* CSP is satisfiable */
    if (x0!=x1 && x0!=x2 && x1!=x2 && y0==dist(x0,x1) && y1==dist(x1,x2)) assert(0);
    return 0;
}
#undef main
#line 87 "dist_alldiff__intensional3__concrete.c"
int main(void) {
    static int (*const versions[])(void) = {csp2c_main_0};
    return csp2c_drive(versions, 1, 5);
}
